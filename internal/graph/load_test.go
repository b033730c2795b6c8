package graph

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLoadEdgeListValid parses a SNAP-style document with comments, blank
// lines, tabs, and out-of-order ids.
func TestLoadEdgeListValid(t *testing.T) {
	input := `# Directed graph (each unordered pair once): example.txt
# Nodes: 5 Edges: 4
0	1
1 2

% matrix-market style comment
3 2
4	0
`
	g, err := LoadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want n=5 m=4", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(3, 2) || !g.HasEdge(0, 4) {
		t.Fatal("expected edges missing")
	}
}

// TestLoadEdgeListErrors pins the typed-error contract: every malformed
// shape yields a *LoadError wrapping the right sentinel, with the right
// line number, and never a panic.
func TestLoadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		cause error
		line  int
	}{
		{"three-fields", "0 1\n1 2 3\n", ErrMalformedLine, 2},
		{"one-field", "7\n", ErrMalformedLine, 1},
		{"not-a-number", "0 x\n", ErrMalformedLine, 1},
		{"float", "0 1.5\n", ErrMalformedLine, 1},
		{"negative", "0 -1\n", ErrIDOverflow, 1},
		{"id-over-int32", "0 2147483648\n", ErrIDOverflow, 1},
		{"id-over-int64", "0 99999999999999999999\n", ErrIDOverflow, 1},
		{"self-loop", "0 1\n2 2\n", ErrSelfLoop, 2},
		{"duplicate", "0 1\n1 0\n", ErrDuplicateEdge, 2},
		{"duplicate-same-orientation", "# c\n0 1\n0 1\n", ErrDuplicateEdge, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadEdgeList(strings.NewReader(c.input))
			var le *LoadError
			if !errors.As(err, &le) {
				t.Fatalf("got %v, want *LoadError", err)
			}
			if !errors.Is(err, c.cause) {
				t.Fatalf("got cause %v, want %v", le.Err, c.cause)
			}
			if le.Line != c.line {
				t.Fatalf("got line %d, want %d", le.Line, c.line)
			}
		})
	}
}

// TestLoadEdgeListEmpty returns the empty graph for comment-only input.
func TestLoadEdgeListEmpty(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("# nothing\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want empty", g.N(), g.M())
	}
}

// TestEdgeListFileStream checks that LoadEdgeListFile reads a file as
// LoadEdgeList reads the same bytes from a stream.
func TestEdgeListFileStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	content := "# demo\n0 1\n1 2\n2 3\n3 0\n1 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := LoadEdgeList(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != 4 || loaded.M() != 5 {
		t.Fatalf("got n=%d m=%d, want n=4 m=5", loaded.N(), loaded.M())
	}
	for v := 0; v < loaded.N(); v++ {
		if !reflect.DeepEqual(streamed.Neighbors(v), loaded.Neighbors(v)) {
			t.Fatalf("adjacency of %d differs", v)
		}
	}
}

// TestEdgeListFileRejectsBad verifies that a file with a bad line fails to
// load with the typed error and its line number.
func TestEdgeListFileRejectsBad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("0 1\n5 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadEdgeListFile(path)
	var le *LoadError
	if !errors.Is(err, ErrSelfLoop) || !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("got %v, want ErrSelfLoop on line 2", err)
	}
}

// FuzzLoadEdgeList is the hardened-decoder fuzz target for the loader: no
// input may panic, failures must be *LoadError, and successes must build a
// graph that passes Validate.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# c\n0\t1\n")
	f.Add("0 0\n")
	f.Add("0 1\n0 1\n")
	f.Add("0 99999999999999999999\n")
	f.Add("a b\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		g, err := LoadEdgeList(strings.NewReader(data))
		if err != nil {
			var le *LoadError
			if !errors.As(err, &le) && !strings.Contains(err.Error(), "reading edge list") {
				t.Fatalf("untyped loader error: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("loaded graph fails Validate: %v", err)
		}
	})
}
