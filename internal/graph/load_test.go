package graph

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
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
		text  string
	}{
		{"three-fields", "0 1\n1 2 3\n", ErrMalformedLine, 2, "1 2 3"},
		{"one-field", "7\n", ErrMalformedLine, 1, "7"},
		{"not-a-number", "0 x\n", ErrMalformedLine, 1, "0 x"},
		{"float", "0 1.5\n", ErrMalformedLine, 1, "0 1.5"},
		{"negative", "0 -1\n", ErrIDOverflow, 1, "0 -1"},
		{"id-over-int32", "0 2147483648\n", ErrIDOverflow, 1, "0 2147483648"},
		{"id-over-int64", "0 99999999999999999999\n", ErrIDOverflow, 1, "0 99999999999999999999"},
		{"self-loop", "0 1\n2 2\n", ErrSelfLoop, 2, "2 2"},
		{"duplicate", "0 1\n1 0\n", ErrDuplicateEdge, 2, "1 0"},
		{"duplicate-same-orientation", "# c\n0 1\n0 1\n", ErrDuplicateEdge, 3, "0 1"},
		// The first bad line in input order is named, whichever kind.
		{"duplicate-before-malformed", "0 1\n1 0\n1 x\n", ErrDuplicateEdge, 2, "1 0"},
		{"malformed-before-duplicate", "0 1\n1 x\n1 0\n", ErrMalformedLine, 2, "1 x"},
		{"id-over-vertex-bound", "0 1\n0 2000000\n", ErrTooManyVertices, 2, "0 2000000"},
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
			if le.Line != c.line || le.Text != c.text {
				t.Fatalf("got line %d %q, want %d %q", le.Line, le.Text, c.line, c.text)
			}
		})
	}
}

// TestLoadEdgeListReadError checks a read that fails after some lines:
// as for the line-by-line reader, a bad line among them is the error, and
// otherwise the read error is.
func TestLoadEdgeListReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, text := range []string{"0 1\n1 2\n", "0 1\n1 x\n", "0 1\n1 0\n2"} {
		failing := func() io.Reader { return io.MultiReader(strings.NewReader(text), iotest.ErrReader(boom)) }
		_, err := LoadEdgeList(failing())
		_, _, ref := readEdgeList(failing(), vertexBound(len(text)))
		if err == nil || err.Error() != ref.Error() || errors.Is(err, boom) != errors.Is(ref, boom) {
			t.Errorf("%q: got %v, reference %v", text, err, ref)
		}
	}
}

// TestLoadEdgeListBadLineBeforeLargeID checks that a bad line before a
// large id fails as the line-by-line reader fails, at the bad line, without
// first building the 4M-vertex graph the id asks for.
func TestLoadEdgeListBadLineBeforeLargeID(t *testing.T) {
	checkLoadFailsSmall(t, "0 1\n1 0\n4000000 0\n", ErrDuplicateEdge, 2)
}

// checkLoadFailsSmall checks that data fails at line with cause, having
// allocated under 1 MiB.
func checkLoadFailsSmall(t *testing.T, data string, cause error, line int) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadEdgeList(strings.NewReader(data))
	runtime.ReadMemStats(&after)
	var le *LoadError
	if !errors.As(err, &le) || !errors.Is(err, cause) || le.Line != line {
		t.Fatalf("%q: got %v, want %v on line %d", data, err, cause, line)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("%q: allocated %d bytes, want under 1 MiB", data, got)
	}
}

// TestLoadEdgeListVertexBound checks the vertex bound: 2^20 vertices for
// any input, and one per byte for a longer one. An id over it fails
// without building the graph it asks for.
func TestLoadEdgeListVertexBound(t *testing.T) {
	checkLoadFailsSmall(t, "0 2000000\n", ErrTooManyVertices, 1)
	checkLoadFailsSmall(t, "0 1048576\n", ErrTooManyVertices, 1)
	g, err := LoadEdgeList(strings.NewReader("0 1048575\n"))
	if err != nil || g.N() != 1<<20 || g.M() != 1 {
		t.Fatalf("2^20 vertices: got %v", err)
	}
	// Two comment lines under the scanner's limit make an input of more
	// than 2^20 bytes, which may have as many vertices as bytes.
	pad := "#" + strings.Repeat("x", 600_000) + "\n"
	prefix := pad + pad + "0 "
	size := len(prefix) + 8 // a 7-digit id and a newline
	for _, c := range []struct {
		id   int
		fail bool
	}{{size - 1, false}, {size, true}} {
		data := prefix + strconv.Itoa(c.id) + "\n"
		if len(data) != size {
			t.Fatalf("input is %d bytes, want %d", len(data), size)
		}
		g, err := LoadEdgeList(strings.NewReader(data))
		switch {
		case c.fail && !errors.Is(err, ErrTooManyVertices):
			t.Errorf("id %d of a %d-byte input: got %v, want ErrTooManyVertices", c.id, size, err)
		case !c.fail && (err != nil || g.N() != size):
			t.Errorf("id %d of a %d-byte input: got %v", c.id, size, err)
		}
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

// checkLoad checks LoadEdgeList on data against readEdgeList, the
// line-by-line reader that keeps a set of seen edges, under the same vertex
// bound. No input may panic, and an error must be a *LoadError or a read
// error. The loader must fail where the reference fails, with its error
// (for a *LoadError its line, text and cause); otherwise its graph must
// pass Validate and hold the reference's vertex count, edge count and
// edges. Validate keeps every list strictly sorted and symmetric, so that
// is the graph the reference's edges build, without building a second one.
func checkLoad(t *testing.T, data string) {
	t.Helper()
	g, err := LoadEdgeList(strings.NewReader(data))
	edges, n, refErr := readEdgeList(strings.NewReader(data), vertexBound(len(data)))
	if err != nil {
		var le, ref *LoadError
		if !errors.As(err, &le) && !strings.Contains(err.Error(), "reading edge list") {
			t.Fatalf("untyped loader error: %v", err)
		}
		switch {
		case refErr == nil:
			t.Fatalf("got %v, reference loads %d edges", err, len(edges))
		case errors.As(refErr, &ref):
			if le == nil || le.Line != ref.Line || le.Text != ref.Text || !errors.Is(err, ref.Err) {
				t.Fatalf("got %v, reference %v", err, refErr)
			}
		case err.Error() != refErr.Error():
			t.Fatalf("got %v, reference %v", err, refErr)
		}
		return
	}
	if refErr != nil {
		t.Fatalf("loaded n=%d m=%d, reference fails with %v", g.N(), g.M(), refErr)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("loaded graph fails Validate: %v", err)
	}
	if g.N() != n || g.M() != len(edges) {
		t.Fatalf("got n=%d m=%d, reference n=%d m=%d", g.N(), g.M(), n, len(edges))
	}
	for _, e := range edges {
		if !g.HasEdge(int(e[0]), int(e[1])) {
			t.Fatalf("reference edge %v missing", e)
		}
	}
}

// TestLoadEdgeListLongLines runs checkLoad on comment lines over, at and
// one byte under the scanner's limit. They are not fuzz seeds: inputs of a
// megabyte stall coverage-guided fuzzing.
func TestLoadEdgeListLongLines(t *testing.T) {
	for _, data := range []string{
		"0 1\n#" + strings.Repeat("x", 1<<20) + "\n1 2\n", // over the limit
		"#" + strings.Repeat("x", maxLine-3) + "\n0 1\n",  // one byte short of filling it
		"#" + strings.Repeat("x", maxLine-2) + "\n0 1\n",  // filling it exactly
	} {
		checkLoad(t, data)
	}
}

// FuzzLoadEdgeList runs checkLoad on every input.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# c\n0\t1\n")
	f.Add("0 0\n")
	f.Add("0 1\n0 1\n")
	f.Add("0 99999999999999999999\n")
	f.Add("a b\n")
	f.Add("")
	f.Add("0 1\r\n1 2\r\n")        // CRLF
	f.Add("007 0001\n01 2\n")      // leading zeros
	f.Add("1000000000 1\n1 x\n")   // 10-digit id, then a bad line
	f.Add("2147483647 0\n0 0\n")   // largest id, then a self loop
	f.Add("0 2147483648\n")        // 10 digits, over int32
	f.Add("+5 1\n")                // a sign
	f.Add("5\u00a07\n")            // U+00A0 separator
	f.Add("0 1 \n1 2\t\n2  3\n")   // trailing and doubled blanks
	f.Add("0 1\n1 2")              // last line without newline
	f.Add("0 1\n1 0\n1 x\n")       // duplicate before malformed
	f.Add("0 1\n1 x\n1 0\n")       // malformed before duplicate
	f.Add("0 2000000\n")           // over the vertex bound
	f.Add("1048576 0\n")           // one over it
	f.Add("0 1\n1 0\n4000000 0\n") // duplicate before an id over it
	f.Fuzz(checkLoad)
}
