package arb

import (
	"math/rand"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/oldc"
	"repro/internal/sim"
)

func bootstrap(t *testing.T, g *graph.Graph) ([]int, int) {
	t.Helper()
	eng := sim.NewEngine(g)
	init, m, _, err := linial.Proper(eng, graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	if err != nil {
		t.Fatal(err)
	}
	return init, m
}

func TestDegreePlusOneListColoring(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.RandomRegular(48, 8, 1),
		graph.GNP(60, 0.12, 2),
		graph.Clique(10),
	} {
		init, m := bootstrap(t, g)
		in := coloring.DegreePlusOne(g, 4*g.MaxDegree()+4, 3)
		res, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Zero defects: the arbdefective coloring is in fact proper.
		if err := coloring.CheckProperList(in, res.Phi); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStandardDeltaPlusOne(t *testing.T) {
	g := graph.RandomRegular(40, 6, 5)
	init, m := bootstrap(t, g)
	in := coloring.Standard(g)
	res, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckProper(g, res.Phi, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
	if res.Stages < 1 || res.Batches < 1 {
		t.Fatalf("stages=%d batches=%d", res.Stages, res.Batches)
	}
}

func TestArbdefectiveInstanceWithDefects(t *testing.T) {
	// Lists of size ≈ deg/2 with defect 1: Σ(d+1) = 2·|L| > deg.
	g := graph.RandomRegular(48, 8, 7)
	in := coloring.UniformDefective(g, 256, 5, 1, 11) // Σ(d+1) = 10 > 8
	init, m := bootstrap(t, g)
	res, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckArb(in, res.Phi, res.Orient); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsViolatingInstance(t *testing.T) {
	in := coloring.CliqueUniform(8, 0, 7) // Σ(d+1) = 7 = deg
	g := in.G
	init, m := bootstrap(t, g)
	if _, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{}); err == nil {
		t.Fatal("expected condition violation error")
	}
}

func TestPickResidualColor(t *testing.T) {
	// Node 0 has list {1, 2, 3} with defects {0, 1, 0}; its neighbors 1..5
	// get colored one by one.
	g := graph.CompleteBipartite(1, 5)
	in := &coloring.Instance{G: g, SpaceSize: 8, Lists: make([]coloring.NodeList, g.N())}
	in.Lists[0] = coloring.NodeList{Colors: []int{1, 2, 3}, Defect: []int{0, 1, 0}}
	for v := 1; v < g.N(); v++ {
		in.Lists[v] = coloring.NodeList{Colors: []int{0, 7}, Defect: []int{0, 0}}
	}
	av := newResidualCounts(in)
	phi := coloring.NewAssignment(g.N())
	color := func(v, x int) {
		phi[v] = x
		av.record(g, phi, v)
	}
	color(1, 1)
	color(2, 2)
	color(3, 2)
	color(4, 7) // outside L_0: never counted
	if got := av.of(0); got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("a_0 = %v, want [1 2 0]", got)
	}
	x, ok := av.pick(0)
	if !ok || x != 3 {
		t.Fatalf("got %d,%v", x, ok)
	}
	color(5, 3)
	if _, ok := av.pick(0); ok {
		t.Fatal("no residual color should exist")
	}
	// Every leaf is colored, so the center's color 0 ∈ L_leaf is never
	// counted: colored nodes never read their counters again.
	color(0, 0)
	for v := 1; v < g.N(); v++ {
		if got := av.of(v); got[0] != 0 || got[1] != 0 {
			t.Fatalf("colored leaf %d counted %v", v, got)
		}
	}
}

// TestResidualCountsMatchBruteForce colors a random graph's nodes one by
// one and compares every uncolored node's counters with a direct count of
// its colored neighbors, over lists that are runs of consecutive colors
// (found by offset) and lists with one or more holes (found by binary
// search), with colors below, inside and above each list.
func TestResidualCountsMatchBruteForce(t *testing.T) {
	const space = 24
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(60, 0.2, 5)
	in := &coloring.Instance{G: g, SpaceSize: space, Lists: make([]coloring.NodeList, g.N())}
	for v := range in.Lists {
		var cols []int
		switch lo, k := rng.Intn(space/2), 3+rng.Intn(space/2-2); v % 3 {
		case 0: // a run
			for x := lo; x < lo+k; x++ {
				cols = append(cols, x)
			}
		case 1: // a run with one hole
			hole := lo + 1 + rng.Intn(k-2)
			for x := lo; x < lo+k; x++ {
				if x != hole {
					cols = append(cols, x)
				}
			}
		default: // gaps of up to two colors
			for x := rng.Intn(3); x < space; x += 1 + rng.Intn(3) {
				cols = append(cols, x)
			}
		}
		in.Lists[v] = coloring.NodeList{Colors: cols, Defect: make([]int, len(cols))}
	}
	av := newResidualCounts(in)
	phi := coloring.NewAssignment(g.N())
	for _, v := range rng.Perm(g.N()) {
		phi[v] = rng.Intn(space)
		av.record(g, phi, v)
		for u := 0; u < g.N(); u++ {
			if phi[u] != coloring.Unset {
				continue
			}
			for i, x := range in.Lists[u].Colors {
				want := 0
				for _, w := range g.Neighbors(u) {
					if phi[w] == x {
						want++
					}
				}
				if got := int(av.of(u)[i]); got != want {
					t.Fatalf("after coloring %d: a_%d(%d) = %d, want %d", v, u, x, got, want)
				}
			}
		}
	}
}

func TestRingAndTree(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(30), graph.RandomTree(50, 9)} {
		init, m := bootstrap(t, g)
		in := coloring.DegreePlusOne(g, 16, 13)
		res, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := coloring.CheckProperList(in, res.Phi); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveViaDefectiveDegreePlusOne(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.RandomRegular(48, 8, 31),
		graph.GNP(60, 0.12, 33),
		graph.Clique(9),
	} {
		init, m := bootstrap(t, g)
		in := coloring.DegreePlusOne(g, 4*g.MaxDegree()+4, 35)
		res, err := SolveViaDefective(g, in, init, m, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := coloring.CheckProperList(in, res.Phi); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveViaDefectiveWithDefects(t *testing.T) {
	g := graph.RandomRegular(40, 8, 37)
	in := coloring.UniformDefective(g, 128, 5, 1, 39) // Σ(d+1)=10 > 8
	init, m := bootstrap(t, g)
	res, err := SolveViaDefective(g, in, init, m, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckArb(in, res.Phi, res.Orient); err != nil {
		t.Fatal(err)
	}
}

func TestSolveViaDefectiveRejects(t *testing.T) {
	in := coloring.CliqueUniform(6, 0, 5)
	g := in.G
	init, m := bootstrap(t, g)
	if _, err := SolveViaDefective(g, in, init, m, sim.Options{}); err == nil {
		t.Fatal("expected condition violation")
	}
}

func TestFallbackSchedulePath(t *testing.T) {
	// MaxStages 1 forces almost everything through the deterministic
	// fallback; the output must still be a valid proper list coloring.
	g := graph.RandomRegular(48, 8, 61)
	init, m := bootstrap(t, g)
	in := coloring.DegreePlusOne(g, 4*g.MaxDegree(), 63)
	res, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{MaxStages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckProperList(in, res.Phi); err != nil {
		t.Fatal(err)
	}
	if res.Stages > 1 {
		t.Fatalf("stages=%d with MaxStages=1", res.Stages)
	}
}

func TestFallbackOnlyPath(t *testing.T) {
	// MaxStages so small that no stage runs at all: the fallback colors
	// everything from scratch.
	g := graph.GNP(40, 0.15, 65)
	init, m := bootstrap(t, g)
	in := coloring.DegreePlusOne(g, 2*g.MaxDegree()+4, 67)
	res, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{MaxStages: 1, ClassFactor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckProperList(in, res.Phi); err != nil {
		t.Fatal(err)
	}
}

func TestClassFactorAffectsBatches(t *testing.T) {
	g := graph.RandomRegular(48, 12, 17)
	init, m := bootstrap(t, g)
	run := func(cf float64) int {
		in := coloring.DegreePlusOne(g, 4*g.MaxDegree(), 19)
		res, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{ClassFactor: cf})
		if err != nil {
			t.Fatal(err)
		}
		return res.Batches
	}
	small := run(0.5)
	large := run(2.5)
	if small <= 0 || large <= 0 {
		t.Fatal("no batches")
	}
	if large < small {
		// More classes per stage → at least as many batches.
		t.Fatalf("batches: factor 0.5 → %d, factor 2.5 → %d", small, large)
	}
}
