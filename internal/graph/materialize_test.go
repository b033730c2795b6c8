package graph

import (
	"errors"
	"slices"
	"testing"
)

// edgeList wraps a fixed edge sequence as a restartable stream.
type edgeList struct {
	n     int
	edges [][2]int
}

func (s edgeList) N() int { return s.n }

func (s edgeList) ForEachEdge(emit func(u, v int) error) error {
	for _, e := range s.edges {
		if err := emit(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

// TestMaterializeErrors pins the typed-error contract: duplicate edges,
// self loops, and out-of-range endpoints fail with the package's sentinels
// instead of panicking like Builder.
func TestMaterializeErrors(t *testing.T) {
	cases := []struct {
		name  string
		es    edgeList
		cause error
	}{
		{"duplicate", edgeList{n: 4, edges: [][2]int{{0, 1}, {1, 2}, {1, 0}}}, ErrDuplicateEdge},
		{"self-loop", edgeList{n: 4, edges: [][2]int{{0, 1}, {2, 2}}}, ErrSelfLoop},
		{"out-of-range", edgeList{n: 4, edges: [][2]int{{0, 5}}}, ErrVertexRange},
		{"negative", edgeList{n: 4, edges: [][2]int{{-1, 2}}}, ErrVertexRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Materialize(c.es); !errors.Is(err, c.cause) {
				t.Errorf("got %v, want %v", err, c.cause)
			}
		})
	}
}

// decodeEdges maps fuzz bytes to a stream: the first byte picks n in
// [0, 16], every following pair one edge with endpoints in [-1, n+1], so
// out-of-range ids, self loops and repeats all occur.
func decodeEdges(data []byte) edgeList {
	if len(data) == 0 {
		return edgeList{}
	}
	es := edgeList{n: int(data[0]) % 17}
	for i := 1; i+1 < len(data); i += 2 {
		u := int(data[i])%(es.n+3) - 1
		v := int(data[i+1])%(es.n+3) - 1
		es.edges = append(es.edges, [2]int{u, v})
	}
	return es
}

// expectedCause classifies an edge sequence the way Materialize must: the
// first out-of-range or self-loop edge in stream order, else a repeated
// pair, else success.
func expectedCause(es edgeList) error {
	for _, e := range es.edges {
		u, v := e[0], e[1]
		if u < 0 || u >= es.n || v < 0 || v >= es.n {
			return ErrVertexRange
		}
		if u == v {
			return ErrSelfLoop
		}
	}
	seen := make(map[[2]int]bool)
	for _, e := range es.edges {
		k := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if seen[k] {
			return ErrDuplicateEdge
		}
		seen[k] = true
	}
	return nil
}

// FuzzMaterialize checks Materialize on arbitrary edge sequences: it never
// panics, rejects bad input with the right sentinel, and otherwise returns
// a valid graph equal to Builder's. The graph's neighbor lists are windows
// of one flat array, so it also applies an edge insertion and a removal
// through the Oriented mutation API and requires every other vertex's
// neighbor list to be untouched.
func FuzzMaterialize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 2, 2, 3, 2, 1}) // duplicate {0,1}
	f.Add([]byte{4, 1, 2, 3, 3})       // self loop
	f.Add([]byte{4, 1, 6})             // out of range
	f.Add([]byte{4, 0, 2})             // negative
	f.Add([]byte{8, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 1, 3, 5})
	f.Add([]byte{16, 1, 9, 2, 10, 3, 11, 1, 17, 1, 5, 9, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		es := decodeEdges(data)
		g, err := Materialize(es)
		want := expectedCause(es)
		if want != nil {
			if !errors.Is(err, want) {
				t.Fatalf("Materialize(%v) = %v, want %v", es, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("Materialize(%v) = %v", es, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(es.n)
		for _, e := range es.edges {
			b.AddEdge(e[0], e[1])
		}
		ref := b.Build()
		if g.N() != ref.N() || g.M() != ref.M() {
			t.Fatalf("shape n=%d m=%d, Builder n=%d m=%d", g.N(), g.M(), ref.N(), ref.M())
		}
		for v := 0; v < g.N(); v++ {
			if !slices.Equal(g.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("neighbors of %d = %v, Builder %v", v, g.Neighbors(v), ref.Neighbors(v))
			}
		}
		if g.N() < 2 {
			return
		}
		// Mutate through the Oriented API: add a missing edge (if any) and
		// remove a present one; nothing else may move.
		o := OrientByID(g)
		before := make([][]int32, g.N())
		for v := range before {
			before[v] = slices.Clone(g.Neighbors(v))
		}
		touched := map[int]bool{}
		for u := 0; u < g.N() && len(touched) == 0; u++ {
			for v := u + 1; v < g.N(); v++ {
				if !g.HasEdge(u, v) {
					if err := o.AddEdge(v, u); err != nil {
						t.Fatal(err)
					}
					touched[u], touched[v] = true, true
					break
				}
			}
		}
		if len(es.edges) > 0 {
			e := es.edges[0]
			if err := o.RemoveEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			touched[e[0]], touched[e[1]] = true, true
		}
		for v := range before {
			if !touched[v] && !slices.Equal(g.Neighbors(v), before[v]) {
				t.Fatalf("mutation changed neighbors of untouched vertex %d: %v, was %v", v, g.Neighbors(v), before[v])
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("after mutation: %v", err)
		}
	})
}
