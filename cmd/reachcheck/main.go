// Command reachcheck fails when the repository declares a function that
// no entry point links and that its allowlist does not name.
//
// It builds every main package of both modules (this one and wlbench)
// with inlining off (-gcflags=all=-l), so every function a binary calls
// keeps a symbol, and takes the union of the binaries' text symbols
// (go tool nm). A non-test function declared outside package main that
// is missing from that union is unlinked, and must be listed in
// allowlist.txt with its class, one per line:
//
//	cxlfork/internal/pt.(*Tree).Validate  # oracle
//
// A listed function that is now linked, or no longer declared, is also
// a failure, so the list can only shrink. Run it from the repository
// root: go run ./cmd/reachcheck
package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// modules are the directories of the repository's Go modules.
var modules = []string{".", "wlbench"}

// classes are the reasons an unlinked function may stay (allowlist.txt).
var classes = map[string]bool{"facade": true, "oracle": true, "paper-mechanism": true, "test-support": true}

//go:embed allowlist.txt
var allowlistText string

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reachcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	declared, linked := map[string]int{}, map[string]bool{}
	for i, mod := range modules {
		// -o into a directory writes there every main package's binary.
		bin := filepath.Join(tmp, fmt.Sprint(i))
		if _, err := goCmd(mod, "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./..."); err != nil {
			return err
		}
		bins, _ := filepath.Glob(filepath.Join(bin, "*")) // the pattern is well-formed
		for _, b := range bins {
			nm, err := goCmd(".", "tool", "nm", b)
			if err != nil {
				return err
			}
			addText(linked, nm)
		}
		pkgs, err := goCmd(mod, "list", "-f", "{{if ne .Name \"main\"}}{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}{{end}}", "./...")
		if err != nil {
			return err
		}
		for _, line := range strings.Split(pkgs, "\n") {
			if f := strings.Split(line, "\t"); len(f) > 2 {
				if err := declare(declared, f[0], f[1], f[2:]); err != nil {
					return err
				}
			}
		}
	}
	unlinked, lines, problems := check(declared, linked, allow)
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s):\n%s", len(problems), strings.Join(problems, "\n"))
	}
	fmt.Printf("reachcheck: ok: %d unlinked functions (%d lines), each on the allowlist\n", unlinked, lines)
	return nil
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("go %s in %s: %w", args[0], dir, err)
	}
	return string(out), err
}

// declare records the length in lines of each function files declare.
func declare(declared map[string]int, pkg, dir string, files []string) error {
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
				declared[symbol(pkg, fd)] = fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
			}
		}
	}
	return nil
}

// symbol returns the linker's name for a function declaration: pkg.F,
// pkg.T.M for a value receiver and pkg.(*T).M for a pointer receiver,
// without a generic receiver's type parameters.
func symbol(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	recv, _, _ := strings.Cut(types.ExprString(fd.Recv.List[0].Type), "[")
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

// addText adds the text symbols of go tool nm output to linked, with
// every bracketed type-argument list dropped: an instantiation
// pkg.(*T[go.shape.int]).M counts as pkg.(*T).M.
func addText(linked map[string]bool, nm string) {
	for _, line := range strings.Split(nm, "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		depth := 0
		linked[strings.Map(func(r rune) rune {
			switch {
			case r == '[':
				depth++
			case r == ']':
				depth--
			case depth == 0:
				return r
			}
			return -1
		}, f[2])] = true
	}
}

// parseAllowlist reads "symbol  # class" lines, skipping blanks and comments.
func parseAllowlist(text string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, class, _ := strings.Cut(line, "#")
		sym, class = strings.TrimSpace(sym), strings.TrimSpace(class)
		switch {
		case sym == "" || strings.ContainsAny(sym, " \t") || !classes[class]:
			return nil, fmt.Errorf("allowlist line %d: want \"symbol  # class\" with a known class, got %q", i+1, line)
		case allow[sym] != "":
			return nil, fmt.Errorf("allowlist line %d: %s listed twice", i+1, sym)
		}
		allow[sym] = class
	}
	return allow, nil
}

// check returns the number of unlinked functions, their lines, and one
// problem per unlinked function off the allowlist or stale entry on it.
func check(declared map[string]int, linked map[string]bool, allow map[string]string) (unlinked, lines int, problems []string) {
	for sym, n := range declared {
		if !linked[sym] {
			unlinked++
			lines += n
			if allow[sym] == "" {
				problems = append(problems, sym+" is linked by no entry point and not on the allowlist")
			}
		}
	}
	for sym := range allow {
		if _, ok := declared[sym]; !ok {
			problems = append(problems, "allowlist: "+sym+" is no longer declared; remove it")
		} else if linked[sym] {
			problems = append(problems, "allowlist: "+sym+" is now linked; remove it")
		}
	}
	sort.Strings(problems)
	return unlinked, lines, problems
}
