package oldc

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestHPrimeFor(t *testing.T) {
	// h′ = 4^⌈log₄ log₂(8h)⌉ ≥ log₂(8h).
	for _, h := range []int{1, 2, 4, 8, 16, 64} {
		hp := hPrimeFor(h)
		l := 1
		for (1 << uint(l)) < 8*h {
			l++
		}
		if hp < l {
			t.Fatalf("h=%d: h'=%d < log2(8h)=%d", h, hp, l)
		}
		// h′ is a power of 4.
		x := hp
		for x > 1 {
			if x%4 != 0 {
				t.Fatalf("h'=%d not a power of 4", hp)
			}
			x /= 4
		}
	}
}

func TestAnalyzeNodeCaseII(t *testing.T) {
	// A uniform-defect list puts all mass at one scale: Case II, one
	// candidate class.
	l := coloring.NodeList{Colors: []int{0, 1, 2, 3}, Defect: []int{1, 1, 1, 1}}
	s, err := analyzeNodeInto(newAnalyzeScratch(4, l.Len()), 8, l, 4, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.cands) != 1 {
		t.Fatalf("uniform defects should give a single class candidate, got %d", len(s.cands))
	}
	for _, c := range s.cands {
		if len(c.colors) != 4 || c.defect != 1 {
			t.Fatalf("candidate %+v", c)
		}
	}
}

func TestAnalyzeNodeEmptyList(t *testing.T) {
	if _, err := analyzeNodeInto(newAnalyzeScratch(4, 0), 4, coloring.NodeList{}, 4, 4, 2, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestAuxListAlignment(t *testing.T) {
	s := classSelection{cands: []classCandidate{
		{class: 1, delta: 2},
		{class: 3, delta: 7},
	}}
	al := s.auxList()
	if al.Len() != 2 || al.Colors[0] != 0 || al.Colors[1] != 2 {
		t.Fatalf("aux colors %v", al.Colors)
	}
	if al.Defect[0] != 2 || al.Defect[1] != 7 {
		t.Fatalf("aux defects %v misaligned", al.Defect)
	}
}

func TestListForClassFallback(t *testing.T) {
	s := classSelection{cands: []classCandidate{
		{class: 2, colors: []int{9}, defect: 1},
	}}
	colors, d := s.listForClass(5)
	if len(colors) != 1 || colors[0] != 9 || d != 1 {
		t.Fatal("fallback to nearest candidate failed")
	}
}

func TestSolveSquareSumInstances(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gr    *graph.Graph
		beta  int
		kappa float64
		maxD  int
	}{
		{"regular-id", graph.RandomRegular(48, 8, 3), 8, 6.0, 3},
		{"gnp-id", graph.GNP(64, 0.15, 5), 0, 6.0, 3},
		{"regular-big-defect", graph.RandomRegular(40, 10, 7), 10, 5.0, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := graph.OrientByID(tc.gr)
			in, eng := prepareInput(t, o, 1<<12, tc.kappa, tc.maxD, 11)
			phi, stats, err := Solve(eng, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
				t.Fatal(err)
			}
			h := classCount(o)
			if stats.Rounds > 6*h+20 {
				t.Fatalf("rounds=%d h=%d, want O(log β)", stats.Rounds, h)
			}
		})
	}
}

func TestSolveZeroDefectListColoring(t *testing.T) {
	// All-zero defects with large lists: Theorem 1.1 as a proper list
	// coloring algorithm (the MT20 special case).
	g := graph.RandomRegular(40, 6, 13)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 1<<11, 8.0, 0, 17)
	phi, _, err := Solve(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < o.N(); v++ {
		for _, u := range o.Out(v) {
			if phi[u] == phi[v] {
				t.Fatalf("monochromatic arc %d->%d", v, u)
			}
		}
	}
}

func TestSolveRejectsGap(t *testing.T) {
	g := graph.Ring(8)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 256, 4.0, 0, 1)
	if _, _, err := Solve(eng, in, Options{Gap: 1}); err == nil {
		t.Fatal("Solve must reject gap != 0")
	}
}

func TestSolveDeterministic(t *testing.T) {
	g := graph.RandomRegular(32, 6, 21)
	o := graph.OrientByID(g)
	run := func() coloring.Assignment {
		in, eng := prepareInput(t, o, 1<<11, 6.0, 2, 23)
		phi, _, err := Solve(eng, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return phi
	}
	a := run()
	b := run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func TestSolveLowDegreeGraphs(t *testing.T) {
	// β = 1..2: h = 1, the trivial-selection shortcut.
	for _, g := range []*graph.Graph{graph.Ring(16), graph.RandomTree(40, 3)} {
		o := graph.OrientDegeneracy(g)
		in, eng := prepareInput(t, o, 256, 4.0, 1, 29)
		phi, _, err := Solve(eng, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveHighKappaMoreHeadroom(t *testing.T) {
	// Sanity: richer lists (larger κ) must not break anything and should
	// keep rounds identical (round count depends only on h).
	g := graph.RandomRegular(32, 8, 31)
	o := graph.OrientByID(g)
	in1, eng1 := prepareInput(t, o, 1<<13, 4.0, 2, 37)
	_, s1, err := Solve(eng1, in1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in2, eng2 := prepareInput(t, o, 1<<13, 12.0, 2, 37)
	_, s2, err := Solve(eng2, in2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Rounds != s2.Rounds {
		t.Fatalf("round count should depend only on h: %d vs %d", s1.Rounds, s2.Rounds)
	}
}

func TestSolveFailsLoudlyUnderFaults(t *testing.T) {
	// Failure injection: with messages adversarially dropped the algorithm
	// must either still produce a valid coloring or return an error — it
	// must never return an invalid coloring silently.
	g := graph.RandomRegular(40, 8, 53)
	o := graph.OrientByID(g)
	for drop := 0; drop < 5; drop++ {
		in, eng := prepareInput(t, o, 1<<12, 5.0, 2, 55)
		d := drop
		eng.Faults = dropWhere(func(round, from, to int) bool {
			return (from+to+round)%5 == d // drop ~20% of messages
		})
		phi, _, err := Solve(eng, in, Options{})
		if err != nil {
			continue // loud failure: acceptable
		}
		if verr := coloring.CheckOLDC(o, in.Lists, phi); verr != nil {
			t.Fatalf("drop=%d: Solve returned an invalid coloring without error: %v", d, verr)
		}
	}
}

func TestSolveUndirected(t *testing.T) {
	g := graph.RandomRegular(40, 6, 41)
	eng := sim.NewEngine(g)
	in, _ := prepareInput(t, graph.OrientSymmetric(g), 1<<12, 5.0, 2, 43)
	// Re-wrap as an undirected instance: symmetric orientation means the
	// square-sum lists were generated against β_v = deg(v) already.
	uin := &coloring.Instance{G: g, SpaceSize: in.SpaceSize, Lists: in.Lists}
	phi, _, err := SolveUndirected(eng, uin, in.InitColors, in.M, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckLDC(uin, phi); err != nil {
		t.Fatal(err)
	}
}
