package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, root, name, content string) {
	t.Helper()
	path := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPackageCommentMissing(t *testing.T) {
	root := t.TempDir()
	write(t, root, "good/doc.go", "// Package good is documented.\npackage good\n")
	write(t, root, "good/code.go", "package good\n")
	write(t, root, "bad/code.go", "package bad\n")

	problems := checkPackageComments(root)
	if len(problems) != 1 {
		t.Fatalf("problems = %v, want exactly the bad package", problems)
	}
	if !strings.Contains(problems[0], "package bad has no package comment") {
		t.Fatalf("unexpected problem: %s", problems[0])
	}
}

func TestPackageCommentAnywhereInPackage(t *testing.T) {
	root := t.TempDir()
	// The comment need not live in doc.go.
	write(t, root, "p/p.go", "// Package p is documented here.\npackage p\n")
	if problems := checkPackageComments(root); len(problems) != 0 {
		t.Fatalf("problems = %v", problems)
	}
}

func TestMarkdownBrokenLinkAndAnchor(t *testing.T) {
	root := t.TempDir()
	write(t, root, "README.md", strings.Join([]string{
		"# Title",
		"## Real Section",
		"[ok](DESIGN.md) [gone](NOPE.md)",
		"[jump](#real-section) [nowhere](#fake-section)",
		"[ext](https://example.com/x)",
	}, "\n"))
	write(t, root, "DESIGN.md", "# D\n## 1. Model\n")

	problems := checkMarkdown(root)
	var got []string
	for _, p := range problems {
		got = append(got, p)
	}
	if len(got) != 2 {
		t.Fatalf("problems = %v, want broken file link + broken anchor", got)
	}
	if !strings.Contains(got[0], "NOPE.md") || !strings.Contains(got[1], "#fake-section") {
		t.Fatalf("unexpected problems: %v", got)
	}
}

func TestDesignSectionCrossReferences(t *testing.T) {
	root := t.TempDir()
	write(t, root, "DESIGN.md", "# D\n## 1. Model\n## 2. Inventory\n")
	write(t, root, "README.md", "see DESIGN.md §2 and DESIGN.md §9\n")

	problems := checkMarkdown(root)
	if len(problems) != 1 {
		t.Fatalf("problems = %v, want exactly the stale §9", problems)
	}
	if !strings.Contains(problems[0], "§9") {
		t.Fatalf("unexpected problem: %s", problems[0])
	}
}

func TestRepoPathsExist(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/here/doc.go", "// Package here exists.\npackage here\n")
	write(t, root, "examples/run.sh", "#!/bin/sh\n")
	write(t, root, "README.md", strings.Join([]string{
		"`internal/here` and `./examples/run.sh` and `examples/*` exist;",
		"`internal/gone` does not; `cmd/cxlsim -exp fig10` is a command.",
	}, "\n"))
	// History documents may name deleted code.
	write(t, root, "ROADMAP.md", "`internal/gone` was deleted\n")

	problems := checkRepoPaths(root)
	if len(problems) != 1 {
		t.Fatalf("problems = %v, want exactly README.md's internal/gone", problems)
	}
	if !strings.Contains(problems[0], "README.md") || !strings.Contains(problems[0], "internal/gone") {
		t.Fatalf("unexpected problem: %s", problems[0])
	}
}

func TestGithubAnchor(t *testing.T) {
	cases := map[string]string{
		"Real Section":                 "real-section",
		"Figure 10 — CXLporter":        "figure-10--cxlporter",
		"Capacity sweep (`-exp cap`)":  "capacity-sweep--exp-cap",
		"8. Parallel copy lanes, etc.": "8-parallel-copy-lanes-etc",
	}
	for in, want := range cases {
		if got := githubAnchor(in); got != want {
			t.Errorf("githubAnchor(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRepositoryIsClean runs the real checks against this repository:
// the docs job must stay green.
func TestRepositoryIsClean(t *testing.T) {
	root := "../.."
	if p := checkPackageComments(root); len(p) != 0 {
		t.Fatalf("package comments: %v", p)
	}
	if p := checkMarkdown(root); len(p) != 0 {
		t.Fatalf("markdown: %v", p)
	}
	if p := checkRepoPaths(root); len(p) != 0 {
		t.Fatalf("repository paths: %v", p)
	}
}
