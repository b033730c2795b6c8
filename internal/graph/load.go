package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Sentinel causes carried by LoadError. Match with errors.Is.
var (
	// ErrMalformedLine marks a line that is not two integer fields.
	ErrMalformedLine = errors.New("malformed edge line")
	// ErrIDOverflow marks a node id outside [0, math.MaxInt32].
	ErrIDOverflow = errors.New("node id out of range")
	// ErrDuplicateEdge marks an edge that appeared earlier in the input
	// (in either orientation).
	ErrDuplicateEdge = errors.New("duplicate edge")
	// ErrTooManyVertices marks an id that would give the graph more
	// vertices than vertexBound allows for the input's size.
	ErrTooManyVertices = errors.New("node id too large for the input size")
)

// LoadError is the typed error every loader path returns on bad input,
// following the hardened-decoder convention (sim.DecodeError):
// no panic ever escapes the loader, and the cause is a matchable sentinel.
type LoadError struct {
	Line int    // 1-based line number in the input
	Text string // the offending line, truncated for display
	Err  error  // sentinel cause (ErrMalformedLine, ErrIDOverflow, ...)
}

// Error implements the error interface.
func (e *LoadError) Error() string {
	return fmt.Sprintf("graph: line %d %q: %v", e.Line, e.Text, e.Err)
}

// Unwrap exposes the sentinel cause to errors.Is.
func (e *LoadError) Unwrap() error { return e.Err }

// loadErr builds a LoadError with a display-truncated copy of the line.
func loadErr(line int, text string, cause error) *LoadError {
	if len(text) > 64 {
		text = text[:64] + "..."
	}
	return &LoadError{Line: line, Text: text, Err: cause}
}

// parseEdgeLine parses one non-comment line of SNAP/edge-list text into an
// edge. It returns ok=false for lines the format skips (blank lines and
// '#' or '%' comments).
func parseEdgeLine(lineno int, line string) (u, v int, ok bool, err error) {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || trimmed[0] == '#' || trimmed[0] == '%' {
		return 0, 0, false, nil
	}
	fields := strings.Fields(trimmed)
	if len(fields) != 2 {
		return 0, 0, false, loadErr(lineno, line, ErrMalformedLine)
	}
	a, errA := strconv.ParseInt(fields[0], 10, 64)
	b, errB := strconv.ParseInt(fields[1], 10, 64)
	if errA != nil || errB != nil {
		// Distinguish "not a number" from "a number too big for int64":
		// both surface range problems as ErrIDOverflow so callers can
		// reject hostile ids uniformly.
		var ne *strconv.NumError
		if (errors.As(errA, &ne) && ne.Err == strconv.ErrRange) ||
			(errors.As(errB, &ne) && ne.Err == strconv.ErrRange) {
			return 0, 0, false, loadErr(lineno, line, ErrIDOverflow)
		}
		return 0, 0, false, loadErr(lineno, line, ErrMalformedLine)
	}
	if a < 0 || a > math.MaxInt32 || b < 0 || b > math.MaxInt32 {
		return 0, 0, false, loadErr(lineno, line, ErrIDOverflow)
	}
	if a == b {
		return 0, 0, false, loadErr(lineno, line, ErrSelfLoop)
	}
	return int(a), int(b), true, nil
}

// packEdge normalizes {u, v} into a single map key.
func packEdge(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// vertexBound is the largest vertex count an edge list of size bytes may
// ask for: one vertex per byte, and 2^20 for any shorter input. The graph
// is sized by its largest id, at 32 bytes per vertex, so without a bound a
// one-line input could ask for gigabytes.
func vertexBound(size int) int { return max(size, 1<<20) }

// readEdgeList parses r fully, validating every line (malformed fields,
// id overflow, ids of maxN or more, self loops, duplicates) and returning
// the edges in input order plus the inferred vertex count (max id + 1).
func readEdgeList(r io.Reader, maxN int) (edges [][2]int32, n int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	seen := make(map[uint64]struct{})
	lineno := 0
	for sc.Scan() {
		lineno++
		u, v, ok, err := parseEdgeLine(lineno, sc.Text())
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			continue
		}
		if max(u, v) >= maxN {
			return nil, 0, loadErr(lineno, sc.Text(), ErrTooManyVertices)
		}
		key := packEdge(u, v)
		if _, dup := seen[key]; dup {
			return nil, 0, loadErr(lineno, sc.Text(), ErrDuplicateEdge)
		}
		seen[key] = struct{}{}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		if u >= n {
			n = u + 1
		}
		if v >= n {
			n = v + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return edges, n, nil
}

// maxLine is the longest line, counting its newline, that readEdgeList's
// scanner buffer holds.
const maxLine = 1024 * 1024

// scanEdges parses data as readEdgeList does, without allocating per line:
// a canonical line (1–9 digits, one space or tab, 1–9 digits) is read in
// place, and every other line goes to parseEdgeLine. It returns ok=false,
// leaving the verdict to readEdgeList, on any bad line and on any line of
// maxLine bytes or more. It does not look for repeats.
func scanEdges(data []byte) (edges [][2]int32, n int, ok bool) {
	edges = make([][2]int32, 0, bytes.Count(data, []byte{'\n'})+1)
	for i := 0; i < len(data); {
		u, j := digits9(data, i)
		if j > i && j < len(data) && (data[j] == ' ' || data[j] == '\t') {
			v, k := digits9(data, j+1)
			if k > j+1 && (k == len(data) || data[k] == '\n') && u != v {
				edges = append(edges, [2]int32{u, v})
				n = max(n, int(u)+1, int(v)+1)
				i = k + 1
				continue
			}
		}
		end := len(data)
		if k := bytes.IndexByte(data[i:], '\n'); k >= 0 {
			end = i + k
		}
		if end-i+1 >= maxLine {
			return nil, 0, false
		}
		a, b, keep, err := parseEdgeLine(0, string(data[i:end]))
		if err != nil {
			return nil, 0, false
		}
		if keep {
			edges = append(edges, [2]int32{int32(a), int32(b)})
			n = max(n, a+1, b+1)
		}
		i = end + 1
	}
	return edges, n, true
}

// digits9 parses the run of at most 9 decimal digits starting at data[i]
// and returns its value and the index after it (i when there is none).
func digits9(data []byte, i int) (int32, int) {
	var x int32
	j := i
	for ; j < len(data) && j-i < 9; j++ {
		d := data[j] - '0'
		if d > 9 {
			break
		}
		x = x*10 + int32(d)
	}
	return x, j
}

// failedRead is a reader whose every read fails with err.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// load builds the graph of the edge-list text data, whose read ended with
// readErr (nil at the end of input). An input the scan does not accept, a
// repeated edge and a failed read go whole to readEdgeList, whose error
// names the first bad line in input order, or else the read error. The
// build is sized by the largest id, not by the input, so a scanned input
// with more vertices than bytes goes to readEdgeList too: before every
// line is accepted, no graph is built out of proportion to the input, and
// none over vertexBound at all.
func load(data []byte, readErr error) (*Graph, error) {
	if readErr == nil {
		if edges, n, ok := scanEdges(data); ok && n <= len(data) {
			if g := (&Builder{n: n, edges: edges}).Build(); g.M() == len(edges) {
				return g, nil
			}
		}
	}
	var r io.Reader = bytes.NewReader(data)
	if readErr != nil {
		r = io.MultiReader(r, failedRead{readErr})
	}
	edges, n, err := readEdgeList(r, vertexBound(len(data)))
	if err != nil {
		return nil, err
	}
	return (&Builder{n: n, edges: edges}).Build(), nil
}

// LoadEdgeList reads a SNAP-style edge list ("u v" per line, '#'/'%'
// comments and blank lines skipped, vertex count inferred as max id + 1)
// and returns the graph. Malformed lines, out-of-range ids, self loops,
// and duplicate edges are rejected with a *LoadError rather than a panic,
// and so is an id that would give the graph more vertices than the input
// has bytes, once that is over 2^20 (ErrTooManyVertices).
//
// The input is read into one buffer that doubles as it grows (one exact
// copy for an in-memory reader) and parsed in place. Repeats are found
// without a set of seen edges: the build sorts and compacts every vertex's
// list, so the input repeats an edge exactly when the graph has fewer
// edges than the input has edge lines. Only then, on a bad line, or when
// the largest id is over the input's length in bytes, is the input parsed
// again line by line, which names the first bad line; so a graph out of
// proportion to the input is built only once every line is accepted.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	var buf bytes.Buffer
	_, err := io.Copy(&buf, r)
	return load(buf.Bytes(), err)
}

// LoadEdgeListFile is LoadEdgeList over a file path.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEdgeList(f)
}
