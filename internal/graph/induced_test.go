package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refInduced is the Builder-based induced view: the survivors' edges
// through a Builder, and every arc of o between survivors, in sorted
// lists that stay nil when empty.
func refInduced(o *Oriented, vs []int) *Oriented {
	pos := make(map[int]int, len(vs))
	for i, v := range vs {
		pos[v] = i
	}
	b := NewBuilder(len(vs))
	res := &Oriented{out: make([][]int32, len(vs)), in: make([][]int32, len(vs))}
	for i, v := range vs {
		for _, w := range o.g.Neighbors(v) {
			j, ok := pos[int(w)]
			if !ok {
				continue
			}
			if i < j {
				b.AddEdge(i, j)
			}
			if o.HasArc(v, int(w)) {
				res.out[i] = append(res.out[i], int32(j))
				res.in[j] = append(res.in[j], int32(i))
			}
		}
	}
	res.g = b.Build()
	for i := range vs {
		slices.Sort(res.out[i])
		slices.Sort(res.in[i])
	}
	return res
}

// snapshotLists deep-copies every adjacency, out- and in-list of o,
// keeping nil lists nil.
func snapshotLists(o *Oriented) [3][][]int32 {
	var s [3][][]int32
	for k, lists := range [3][][]int32{o.g.adj, o.out, o.in} {
		s[k] = make([][]int32, len(lists))
		for v, l := range lists {
			s[k][v] = slices.Clone(l)
		}
	}
	return s
}

// checkMutationIsolated applies one mutation to o and checks that only
// the lists of its two endpoints changed: lists carved from a shared flat
// array must not spill into a neighbor's segment when a mutation inserts
// in place.
func checkMutationIsolated(t *testing.T, tag string, o *Oriented, u, v int, mutate func() error) {
	t.Helper()
	before := snapshotLists(o)
	if err := mutate(); err != nil {
		t.Fatalf("%s: mutation {%d,%d}: %v", tag, u, v, err)
	}
	after := snapshotLists(o)
	for k := range before {
		for x := range before[k] {
			if x != u && x != v && !reflect.DeepEqual(before[k][x], after[k][x]) {
				t.Fatalf("%s: mutating {%d,%d} changed list %d of vertex %d: %v → %v",
					tag, u, v, k, x, before[k][x], after[k][x])
			}
		}
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("%s: after mutating {%d,%d}: %v", tag, u, v, err)
	}
	// The endpoints' own lists: strictly ascending, and every out-arc
	// mirrored by exactly one in-arc, so an insert that overran one of
	// them into the other shows.
	arcs := 0
	for x := 0; x < o.N(); x++ {
		for _, l := range [][]int32{o.g.adj[x], o.out[x], o.in[x]} {
			if !slices.IsSorted(l) || len(slices.Compact(slices.Clone(l))) != len(l) {
				t.Fatalf("%s: after mutating {%d,%d}: vertex %d list %v not strictly ascending", tag, u, v, x, l)
			}
		}
		for _, w := range o.out[x] {
			if _, ok := slices.BinarySearch(o.in[w], int32(x)); !ok {
				t.Fatalf("%s: after mutating {%d,%d}: arc %d→%d missing from the in-list", tag, u, v, x, w)
			}
		}
		arcs += len(o.out[x]) - len(o.in[x])
	}
	if arcs != 0 {
		t.Fatalf("%s: after mutating {%d,%d}: out- and in-lists differ by %d arcs", tag, u, v, arcs)
	}
}

// checkMutationsIsolated adds the first missing edge and removes one
// present edge of o, each through checkMutationIsolated.
func checkMutationsIsolated(t *testing.T, tag string, o *Oriented) {
	t.Helper()
	if u, v, ok := missingEdge(o.g); ok {
		checkMutationIsolated(t, tag+" add", o, u, v, func() error { return o.AddEdge(v, u) })
	}
	for u := 0; u < o.N(); u++ {
		if nb := o.g.Neighbors(u); len(nb) > 0 {
			v := int(nb[len(nb)/2])
			checkMutationIsolated(t, tag+" remove", o, u, v, func() error { return o.RemoveEdge(u, v) })
			return
		}
	}
}

// missingEdge returns the first vertex pair of g that is not an edge.
func missingEdge(g *Graph) (int, int, bool) {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v, true
			}
		}
	}
	return 0, 0, false
}

// checkInduced compares both induced views of o on vs with the references,
// nil-ness of empty lists included, then mutates each result.
func checkInduced(t *testing.T, o *Oriented, vs []int) {
	t.Helper()
	want := refInduced(o, vs)
	got, orig, err := InducedOriented(o, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(orig, vs) {
		t.Fatalf("InducedOriented orig %v, want %v", orig, vs)
	}
	if !reflect.DeepEqual(got.g, want.g) || !reflect.DeepEqual(got.out, want.out) || !reflect.DeepEqual(got.in, want.in) {
		t.Fatalf("InducedOriented on %v:\n got g=%#v out=%#v in=%#v\nwant g=%#v out=%#v in=%#v",
			vs, got.g, got.out, got.in, want.g, want.out, want.in)
	}
	sub, orig2 := o.g.InducedSubgraph(vs)
	if !slices.Equal(orig2, vs) || !reflect.DeepEqual(sub, want.g) {
		t.Fatalf("InducedSubgraph on %v:\n got %#v\nwant %#v", vs, sub, want.g)
	}
	checkMutationsIsolated(t, "InducedOriented", got)
	// Orient's arc lists and InducedSubgraph's adjacency share flat arrays
	// too; the mutation API reaches both through an orientation of sub.
	checkMutationsIsolated(t, "Orient(InducedSubgraph)", OrientByID(sub))
}

// fuzzOrientation builds the orientation kind k of g: symmetric, by id or
// by degeneracy, the two Orient-based ones checked against sortedOrient,
// nil-ness of empty lists included.
func fuzzOrientation(t *testing.T, g *Graph, k int) *Oriented {
	t.Helper()
	if k%3 == 0 {
		return OrientSymmetric(g)
	}
	dir := func(u, v int) bool { return u > v }
	o := OrientByID(g)
	if k%3 == 2 {
		pos := degeneracyOrder(g)
		dir = func(u, v int) bool { return pos[u] < pos[v] }
		o = OrientDegeneracy(g)
	}
	if out, in := sortedOrient(g, dir); !reflect.DeepEqual(o.out, out) || !reflect.DeepEqual(o.in, in) {
		t.Fatalf("kind %d:\n got out=%#v in=%#v\nwant out=%#v in=%#v", k%3, o.out, o.in, out, in)
	}
	return o
}

// FuzzInduced checks the flat induced views and the flat Orient against
// the Builder- and append-based references on fuzzer-chosen G(n,p) graphs,
// orientations (symmetric, by id, degeneracy) and vertex sets: pick's bit
// i keeps vertex i, and an odd shuffle seed visits the set in shuffled
// order. Every result is then mutated to check that its lists own their
// storage.
func FuzzInduced(f *testing.F) {
	f.Add(uint8(24), uint8(80), int64(1), uint8(0), int64(0), []byte{0xff, 0x0f, 0xa5})
	f.Add(uint8(24), uint8(80), int64(2), uint8(1), int64(3), []byte{0xff, 0xff, 0xff})
	f.Add(uint8(30), uint8(120), int64(3), uint8(2), int64(5), []byte{0x5a, 0x77, 0x31, 0x9c})
	f.Add(uint8(16), uint8(200), int64(4), uint8(1), int64(0), []byte{})
	f.Add(uint8(40), uint8(30), int64(5), uint8(2), int64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, n, density uint8, seed int64, kind uint8, shuffle int64, pick []byte) {
		g := GNP(int(n)%48+1, float64(density)/255, seed)
		o := fuzzOrientation(t, g, int(kind))
		var vs []int
		for v := 0; v < g.N() && v/8 < len(pick); v++ {
			if pick[v/8]>>(v%8)&1 == 1 {
				vs = append(vs, v)
			}
		}
		if shuffle%2 != 0 {
			rand.New(rand.NewSource(shuffle)).Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		}
		checkInduced(t, o, vs)
	})
}

// TestInducedViewsMatchReference runs FuzzInduced's check over the four
// vertex-set shapes — empty, full, ascending subset, shuffled subset — for
// each orientation kind on a spread of graphs.
func TestInducedViewsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 60; iter++ {
		g := GNP(1+rng.Intn(60), rng.Float64()*0.4, int64(iter))
		o := fuzzOrientation(t, g, iter)
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		var sub []int
		for _, v := range all {
			if rng.Intn(3) > 0 {
				sub = append(sub, v)
			}
		}
		shuffled := slices.Clone(sub)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, vs := range [][]int{nil, all, sub, shuffled} {
			checkInduced(t, o, vs)
		}
	}
}
