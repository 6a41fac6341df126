package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestSymbolNamesReceivers(t *testing.T) {
	src := `package p
func F() {}
func (T) M() {}
func (t *T) P() {}
func (g G[K]) V() {}
func (h *H[K, V]) W() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, symbol("x/p", d.(*ast.FuncDecl)))
	}
	want := []string{"x/p.F", "x/p.T.M", "x/p.(*T).P", "x/p.G.V", "x/p.(*H).W"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("symbols %q, want %q", got, want)
	}
}

func TestAddTextDropsTypeArgs(t *testing.T) {
	nm := `  4a5b20 T x/p.(*T).P
  4a5c00 t x/p.(*H[go.shape.int,go.shape.string]).W
  4a5d00 T x/p.F[go.shape.struct { A [2]int }]
  5b0000 D x/p.data
         U x/p.undefined
`
	linked := map[string]bool{}
	addText(linked, nm)
	want := map[string]bool{"x/p.(*T).P": true, "x/p.(*H).W": true, "x/p.F": true}
	if !reflect.DeepEqual(linked, want) {
		t.Fatalf("linked %v, want %v", linked, want)
	}
}

func TestParseAllowlist(t *testing.T) {
	allow, err := parseAllowlist("# header\n\nx/p.(*T).P  # oracle\nx/p.F # facade\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"x/p.(*T).P": "oracle", "x/p.F": "facade"}; !reflect.DeepEqual(allow, want) {
		t.Fatalf("allowlist %v, want %v", allow, want)
	}
	for _, bad := range []string{
		"x/p.F\n",                            // no class
		"x/p.F  # useful\n",                  // unknown class
		"x/p.F x/p.G  # facade\n",            // two symbols
		"x/p.F  # facade\nx/p.F  # oracle\n", // listed twice
	} {
		if _, err := parseAllowlist(bad); err == nil {
			t.Errorf("allowlist %q accepted", bad)
		}
	}
	if _, err := parseAllowlist(allowlistText); err != nil {
		t.Fatalf("committed allowlist: %v", err)
	}
}

// TestCheckRatchet: an unlinked function off the list fails, and so do
// entries that are linked or no longer declared.
func TestCheckRatchet(t *testing.T) {
	declared := map[string]int{"x/p.Used": 3, "x/p.Listed": 4, "x/p.New": 2}
	linked := map[string]bool{"x/p.Used": true}
	allow := map[string]string{"x/p.Listed": "facade", "x/p.Used": "oracle", "x/p.Gone": "facade"}
	unlinked, lines, problems := check(declared, linked, allow)
	if unlinked != 2 || lines != 6 {
		t.Fatalf("unlinked %d functions of %d lines, want 2 of 6", unlinked, lines)
	}
	want := []string{
		"allowlist: x/p.Gone is no longer declared; remove it",
		"allowlist: x/p.Used is now linked; remove it",
		"x/p.New is linked by no entry point and not on the allowlist",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
	delete(declared, "x/p.New")
	delete(allow, "x/p.Used")
	delete(allow, "x/p.Gone")
	if _, _, problems := check(declared, linked, allow); len(problems) != 0 {
		t.Fatalf("clean tree reported %q", problems)
	}
}
