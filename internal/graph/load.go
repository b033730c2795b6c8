package graph

import (
	"bufio"
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

// readEdgeList parses r fully, validating every line (malformed fields,
// id overflow, self loops, duplicates) and returning the edges in input
// order plus the inferred vertex count (max id + 1).
func readEdgeList(r io.Reader) (edges [][2]int32, n int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
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

// LoadEdgeList reads a SNAP-style edge list ("u v" per line, '#'/'%'
// comments and blank lines skipped, vertex count inferred as max id + 1)
// and returns the graph. Malformed lines, out-of-range ids, self loops,
// and duplicate edges are rejected with a *LoadError rather than a panic.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	edges, n, err := readEdgeList(r)
	if err != nil {
		return nil, err
	}
	return (&Builder{n: n, edges: edges}).Build(), nil
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
