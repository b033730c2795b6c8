package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docCheckedPackages are the packages whose exported identifiers must all
// carry godoc comments. Grow this list as packages reach full coverage;
// the test is the enforcement mechanism (the repo vendors no linter
// binaries).
var docCheckedPackages = []string{
	"../sim",
	"../algkit",
	"../cover",
	"../chaos",
	"../ckpt",
	"../oldc",
	"../fk24",
	"../maus21",
	"../obs",
	"../serve",
	"../lint",
}

// TestExportedDocComments fails if any exported identifier in the audited
// packages lacks a doc comment.
func TestExportedDocComments(t *testing.T) {
	for _, dir := range docCheckedPackages {
		missing, err := MissingDocs(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, m := range missing {
			t.Errorf("missing doc comment: %s", m)
		}
	}
}

// TestMissingDocsDetects sanity-checks the checker itself against a
// fixture with known gaps, so a silently broken parser can't fake a green
// audit.
func TestMissingDocsDetects(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

// Documented is fine.
type Documented struct{}

type Undocumented struct{}

func Exported() {}

// Method docs attach to the receiver's methods individually.
func (Documented) Good() {}

func (Documented) Bad() {}

func (Undocumented) Skipped() {} // method on documented-or-not type still checked

func unexported() {}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err := MissingDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(missing, "\n")
	for _, want := range []string{"Undocumented", "Exported", "Documented.Bad", "Undocumented.Skipped", "no package comment"} {
		if !strings.Contains(got, want) {
			t.Errorf("checker missed %q in:\n%s", want, got)
		}
	}
	for _, never := range []string{"Documented.Good", "unexported"} {
		if strings.Contains(got, never+" ") || strings.HasSuffix(got, never) {
			t.Errorf("checker flagged documented/unexported %q:\n%s", never, got)
		}
	}
}

// TestRepoMarkdownLinks fails on any relative markdown link in the repo
// whose target file does not exist.
func TestRepoMarkdownLinks(t *testing.T) {
	files, err := MarkdownFiles("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("only %d markdown files found — wrong walk root?", len(files))
	}
	broken, err := BrokenLinks(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range broken {
		t.Errorf("broken link: %s", b)
	}
}

// TestBrokenLinksDetects sanity-checks the link checker against known-bad
// and known-good fixtures.
func TestBrokenLinksDetects(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.md")
	if err := os.WriteFile(good, []byte("see [self](good.md), [web](https://example.com), [anchor](#x), [a](good.md#sec)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.md")
	if err := os.WriteFile(bad, []byte("see [gone](missing.md) and fenced:\n```\n[ignored](nope.md)\n```\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	broken, err := BrokenLinks([]string{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || !strings.Contains(broken[0], "missing.md") {
		t.Fatalf("broken = %v, want exactly the missing.md link", broken)
	}
}
