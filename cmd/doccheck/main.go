// Command doccheck enforces the repository's documentation invariants.
// CI runs it as the docs job; it exits non-zero listing every problem.
//
// Five checks:
//
//  1. Every Go package (root, internal/..., cmd/..., examples/...) has
//     a package comment — godoc's first requirement, and this repo's
//     convention is to keep it in a doc.go per package.
//
//  2. Every relative markdown link in the checked documents resolves
//     to an existing file (relative to the document's own directory),
//     and every intra-document anchor to an existing heading. External
//     http(s) links are not fetched.
//
//  3. Every "DESIGN.md §N" style cross-reference names a section that
//     actually exists (a "## N." heading), so doc comments and the
//     markdown stay in sync when sections are renumbered.
//
//  4. Packages listed in exportedDocPackages are held to a stricter
//     bar: every exported symbol (type, func, method, var, const) has
//     its own doc comment, not just the package.
//
//  5. Every backticked repository path (`internal/…`, `cmd/…`,
//     `examples/…`, `wlbench/…`, `docs/…`) in the documents listed in
//     pathDocs exists; a glob must match something.
//
// Usage: go run ./cmd/doccheck [-root dir]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// markdownDocs are the documents whose links and cross-references are
// checked. Package comments are checked for every package regardless.
var markdownDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md", "PAPER.md", "docs/API.md"}

// pathDocs are the documents whose backticked repository paths must
// exist (check 5). ROADMAP.md and CHANGES.md record history, so they
// may name code that is gone.
var pathDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "docs/API.md"}

// exportedDocPackages are checked symbol-by-symbol (check 4). The
// serving layer is API surface for HTTP clients and the facade alike,
// so its godoc must be complete; the attribution report is serialized
// to those same clients, so internal/xray is held to the same bar.
var exportedDocPackages = []string{"internal/serve", "internal/xray"}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	problems = append(problems, checkPackageComments(*root)...)
	problems = append(problems, checkMarkdown(*root)...)
	problems = append(problems, checkExportedDocs(*root)...)
	problems = append(problems, checkRepoPaths(*root)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// checkPackageComments walks every Go package under root and reports
// packages without a package comment.
func checkPackageComments(root string) []string {
	var problems []string
	dirs := map[string]bool{}
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() {
			name := info.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})

	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	fset := token.NewFileSet()
	for _, dir := range sorted {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, name))
			}
		}
	}
	return problems
}

var (
	// [text](target) — inline links only; reference-style links are not
	// used in this repo.
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// DESIGN.md §N cross-references (also bare §N inside DESIGN.md
	// would be ambiguous with paper sections, so only the qualified
	// form is checked).
	designRef = regexp.MustCompile(`DESIGN\.md §(\d+)`)
	mdHeading = regexp.MustCompile(`(?m)^(#{1,6})\s+(.+)$`)
	// `internal/porter`, `./examples/served/walkthrough.sh`, `cmd/*`: a
	// code span that is nothing but a repository path.
	repoPath = regexp.MustCompile("`(?:\\./)?((?:internal|cmd|examples|wlbench|docs)/[^`\\s]*)`")
)

// checkMarkdown verifies relative links, intra-document anchors, and
// DESIGN.md § cross-references in the top-level documents.
func checkMarkdown(root string) []string {
	var problems []string

	designSections := map[string]bool{}
	if b, err := os.ReadFile(filepath.Join(root, "DESIGN.md")); err == nil {
		for _, m := range mdHeading.FindAllStringSubmatch(string(b), -1) {
			// "## 7. Failure model" registers section 7.
			title := m[2]
			if i := strings.IndexByte(title, '.'); i > 0 {
				designSections[strings.TrimSpace(title[:i])] = true
			}
		}
	}

	for _, doc := range markdownDocs {
		path := filepath.Join(root, doc)
		b, err := os.ReadFile(path)
		if err != nil {
			continue // optional document
		}
		text := string(b)

		anchors := map[string]bool{}
		for _, m := range mdHeading.FindAllStringSubmatch(text, -1) {
			anchors[githubAnchor(m[2])] = true
		}

		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			case strings.HasPrefix(target, "#"):
				if !anchors[strings.TrimPrefix(target, "#")] {
					problems = append(problems, fmt.Sprintf("%s: broken anchor link %q", doc, target))
				}
			default:
				file := target
				if i := strings.IndexByte(file, '#'); i >= 0 {
					file = file[:i]
				}
				if file == "" {
					continue
				}
				// Relative links resolve against the document's own
				// directory (docs/API.md links differently than README.md).
				if _, err := os.Stat(filepath.Join(filepath.Dir(path), filepath.FromSlash(file))); err != nil {
					problems = append(problems, fmt.Sprintf("%s: broken link %q", doc, target))
				}
			}
		}

		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			if !designSections[m[1]] {
				problems = append(problems, fmt.Sprintf("%s: stale reference DESIGN.md §%s (no such section)", doc, m[1]))
			}
		}
	}
	return problems
}

// checkRepoPaths enforces check 5: every backticked repository path in
// pathDocs names a file or directory that exists, relative to root.
func checkRepoPaths(root string) []string {
	var problems []string
	for _, doc := range pathDocs {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			continue // optional document
		}
		for _, m := range repoPath.FindAllStringSubmatch(string(b), -1) {
			if hits, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(m[1]))); len(hits) == 0 {
				problems = append(problems, fmt.Sprintf("%s: stale path `%s` (no such file or directory)", doc, m[1]))
			}
		}
	}
	return problems
}

// checkExportedDocs enforces check 4: in the listed packages, every
// exported symbol carries a doc comment. A declaration group's comment
// covers its specs, and a spec's own doc or trailing line comment also
// counts — the same places godoc looks.
func checkExportedDocs(root string) []string {
	var problems []string
	fset := token.NewFileSet()
	for _, rel := range exportedDocPackages {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", rel, err))
			continue
		}
		var pkgNames []string
		for name := range pkgs {
			pkgNames = append(pkgNames, name)
		}
		sort.Strings(pkgNames)
		for _, pkgName := range pkgNames {
			pkg := pkgs[pkgName]
			var files []string
			for f := range pkg.Files {
				files = append(files, f)
			}
			sort.Strings(files)
			for _, fname := range files {
				relFile := filepath.ToSlash(filepath.Join(rel, filepath.Base(fname)))
				for _, decl := range pkg.Files[fname].Decls {
					problems = append(problems, undocumentedExports(relFile, decl)...)
				}
			}
		}
	}
	return problems
}

// undocumentedExports reports the exported names in one top-level
// declaration that lack a doc comment.
func undocumentedExports(file string, decl ast.Decl) []string {
	var problems []string
	gap := func(kind, name string) string {
		return fmt.Sprintf("%s: exported %s %s has no doc comment", file, kind, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			problems = append(problems, gap(kind, d.Name.Name))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
					problems = append(problems, gap("type", sp.Name.Name))
				}
			case *ast.ValueSpec:
				covered := d.Doc != nil || sp.Doc != nil || sp.Comment != nil
				for _, n := range sp.Names {
					if n.IsExported() && !covered {
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						problems = append(problems, gap(kind, n.Name))
					}
				}
			}
		}
	}
	return problems
}

// githubAnchor converts a heading to GitHub's anchor slug: lowercase,
// spaces to dashes, punctuation dropped.
func githubAnchor(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}
