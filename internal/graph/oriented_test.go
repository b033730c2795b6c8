package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrientByID(t *testing.T) {
	g := Clique(5)
	o := OrientByID(g)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arcs point toward the smaller endpoint: vertex 0 receives
	// everything, vertex 4 sends everything.
	if len(o.Out(4)) != 4 {
		t.Fatalf("outdeg(4)=%d", len(o.Out(4)))
	}
	if len(o.Out(0)) != 0 || o.OutDegree(0) != 1 {
		t.Fatalf("outdeg(0)=%d β=%d", len(o.Out(0)), o.OutDegree(0))
	}
}

func TestOrientSymmetric(t *testing.T) {
	g := Ring(6)
	o := OrientSymmetric(g)
	for v := 0; v < 6; v++ {
		if len(o.Out(v)) != 2 {
			t.Fatalf("symmetric outdeg(%d)=%d", v, len(o.Out(v)))
		}
	}
	if !o.HasArc(0, 1) || !o.HasArc(1, 0) {
		t.Fatal("symmetric orientation must have both arcs")
	}
}

func TestOrientDegeneracyTree(t *testing.T) {
	g := RandomTree(100, 3)
	o := OrientDegeneracy(g)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if b := o.MaxOutDegree(); b > 1 {
		t.Fatalf("tree degeneracy orientation has β=%d, want 1", b)
	}
}

func TestOrientDegeneracyPlanarish(t *testing.T) {
	g := Grid(10, 10)
	o := OrientDegeneracy(g)
	if b := o.MaxOutDegree(); b > 2 {
		t.Fatalf("grid degeneracy orientation has β=%d, want <= 2", b)
	}
}

func TestEulerOrientationBound(t *testing.T) {
	graphs := []*Graph{Ring(9), Clique(8), Clique(9), Grid(6, 7), GNP(60, 0.3, 11), RandomRegular(30, 5, 2)}
	for gi, g := range graphs {
		o := EulerOrientation(g)
		if err := o.Validate(); err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for v := 0; v < g.N(); v++ {
			bound := (g.Degree(v) + 1) / 2
			if len(o.Out(v)) > bound {
				t.Fatalf("graph %d: outdeg(%d)=%d > ceil(deg/2)=%d", gi, v, len(o.Out(v)), bound)
			}
		}
		// Every edge oriented exactly once.
		total := 0
		for v := 0; v < g.N(); v++ {
			total += len(o.Out(v))
		}
		if total != g.M() {
			t.Fatalf("graph %d: oriented %d arcs, want %d", gi, total, g.M())
		}
	}
}

func TestEulerOrientationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := GNP(25, 0.25, seed)
		o := EulerOrientation(g)
		if o.Validate() != nil {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if len(o.Out(v)) > (g.Degree(v)+1)/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOrientedInOutConsistency(t *testing.T) {
	g := GNP(40, 0.2, 5)
	o := OrientByID(g)
	inCount := 0
	outCount := 0
	for v := 0; v < g.N(); v++ {
		inCount += len(o.In(v))
		outCount += len(o.Out(v))
		for _, u := range o.Out(v) {
			found := false
			for _, w := range o.In(int(u)) {
				if int(w) == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("arc %d->%d missing from in-list", v, u)
			}
		}
	}
	if inCount != outCount || outCount != g.M() {
		t.Fatalf("in=%d out=%d m=%d", inCount, outCount, g.M())
	}
}

// sortedOrient is the reference for Orient: the same arcs, with every list
// sorted explicitly.
func sortedOrient(g *Graph, dir func(u, v int) bool) (out, in [][]int32) {
	out, in = make([][]int32, g.N()), make([][]int32, g.N())
	g.ForEachEdge(func(u, v int) {
		if !dir(u, v) {
			u, v = v, u
		}
		out[u] = append(out[u], int32(v))
		in[v] = append(in[v], int32(u))
	})
	for v := range out {
		sort.Slice(out[v], func(i, j int) bool { return out[v][i] < out[v][j] })
		sort.Slice(in[v], func(i, j int) bool { return in[v][i] < in[v][j] })
	}
	return out, in
}

// TestOrientListsSorted pins the invariant Orient relies on instead of a
// sort: its out-lists and in-lists come out strictly ascending. It checks
// random graphs, before and after Oriented mutations, under three
// orientations: by id, by reversed id and by a random antisymmetric rule.
func TestOrientListsSorted(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := GNP(n, rng.Float64()*0.5, seed)
		flip := make(map[[2]int]bool)
		dirs := map[string]func(u, v int) bool{
			"id":       func(u, v int) bool { return u > v },
			"reversed": func(u, v int) bool { return u < v },
			"random": func(u, v int) bool {
				key := [2]int{min(u, v), max(u, v)}
				f, ok := flip[key]
				if !ok {
					f = rng.Intn(2) == 0
					flip[key] = f
				}
				return f == (u < v)
			},
		}
		check := func(stage string) {
			for name, dir := range dirs {
				o := Orient(g, dir)
				if err := o.Validate(); err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, stage, name, err)
				}
				wantOut, wantIn := sortedOrient(g, dir)
				for v := 0; v < g.N(); v++ {
					for _, l := range [][]int32{o.Out(v), o.In(v)} {
						for i := 1; i < len(l); i++ {
							if l[i-1] >= l[i] {
								t.Fatalf("seed %d %s %s: node %d list %v not strictly ascending", seed, stage, name, v, l)
							}
						}
					}
					if !slices.Equal(o.Out(v), wantOut[v]) || !slices.Equal(o.In(v), wantIn[v]) {
						t.Fatalf("seed %d %s %s: node %d out %v in %v, want out %v in %v",
							seed, stage, name, v, o.Out(v), o.In(v), wantOut[v], wantIn[v])
					}
				}
			}
		}
		check("generated")
		// Mutate through an orientation, then orient the changed graph
		// again.
		o := OrientByID(g)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(4) {
			case 0, 1:
				_ = o.AddEdge(u, v) // self loops and existing edges are refused
			case 2:
				_ = o.RemoveEdge(u, v) // missing edges are refused
			case 3:
				if _, err := o.DetachNode(u); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: mutated graph: %v", seed, err)
		}
		check("mutated")
	}
}

// refValidate is the search-based check Validate's merge walks replaced.
func refValidate(o *Oriented) error {
	var err error
	o.g.ForEachEdge(func(u, v int) {
		if err == nil && !o.HasArc(u, v) && !o.HasArc(v, u) {
			err = fmt.Errorf("oriented: edge {%d,%d} has no arc", u, v)
		}
	})
	if err != nil {
		return err
	}
	for u := 0; u < o.N(); u++ {
		for _, v := range o.out[u] {
			if !o.g.HasEdge(u, int(v)) {
				return fmt.Errorf("oriented: arc %d->%d has no underlying edge", u, v)
			}
		}
	}
	return nil
}

// TestValidateMatchesReference corrupts random orientations — an arc
// dropped, a foreign arc added, or both — and checks that Validate reports
// exactly what the search-based reference reports.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(30)
		g := GNP(n, rng.Float64()*0.5, int64(iter))
		var o *Oriented
		switch iter % 3 {
		case 0:
			o = OrientByID(g)
		case 1:
			o = OrientDegeneracy(g)
		default:
			o = OrientSymmetric(g)
			o = &Oriented{g: g, out: slices.Clone(o.out), in: o.in}
		}
		u := rng.Intn(n)
		if iter%4 != 1 && len(o.out[u]) > 0 { // drop an arc
			i := rng.Intn(len(o.out[u]))
			o.out[u] = slices.Delete(slices.Clone(o.out[u]), i, i+1)
		}
		if iter%4 != 0 { // add an arc, foreign unless it lands on an edge
			v := int32(rng.Intn(n))
			if i, found := slices.BinarySearch(o.out[u], v); !found && int(v) != u {
				o.out[u] = slices.Insert(slices.Clone(o.out[u]), i, v)
			}
		}
		got, want := o.Validate(), refValidate(o)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: Validate %v, reference %v", iter, got, want)
		}
	}
}
