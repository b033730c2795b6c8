package oldc

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/sim"
)

// prepareInput builds an OLDC input on the oriented graph with a proper
// initial coloring from the Linial substrate and square-sum lists.
func prepareInput(t *testing.T, o *graph.Oriented, spaceSize int, kappa float64, maxDefect int, seed int64) (Input, *sim.Engine) {
	t.Helper()
	g := o.Graph()
	eng := sim.NewEngine(g)
	init, m, _, err := linial.Proper(eng, graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	if err != nil {
		t.Fatal(err)
	}
	in := coloring.SquareSumOriented(o, spaceSize, kappa, maxDefect, seed)
	return Input{O: o, SpaceSize: spaceSize, Lists: in.Lists, InitColors: init, M: m}, eng
}

func TestGammaClass(t *testing.T) {
	// 2^i ≥ 2β/(d+1).
	for _, tc := range []struct{ beta, d, h, want int }{
		{8, 0, 8, 4},  // 2·8/1 = 16 → i=4
		{8, 1, 8, 3},  // 16/2 = 8 → 3
		{8, 7, 8, 1},  // 16/8 = 2 → 1
		{8, 15, 8, 1}, // 1 → 1 (clamped up)
		{1, 0, 8, 1},
		{100, 0, 4, 4}, // clamped to h
	} {
		if got := gammaClass(tc.beta, tc.d, tc.h); got != tc.want {
			t.Fatalf("gammaClass(%d,%d,%d)=%d want %d", tc.beta, tc.d, tc.h, got, tc.want)
		}
	}
}

func TestRestrictToBestDefectClass(t *testing.T) {
	l := coloring.NodeList{
		Colors: []int{0, 1, 2, 3, 4},
		Defect: []int{0, 0, 3, 3, 3},
	}
	// β=8, h=4: colors with d=0 → class 4 (mass 2), d=3 → class 2 (mass 48).
	list, d, err := restrictToBestDefectClass(8, l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 || len(list) != 3 {
		t.Fatalf("got list %v defect %d", list, d)
	}
}

func TestSolveMultiZeroDefects(t *testing.T) {
	// With all defects 0 and large lists this is MT20-style proper list
	// coloring of a directed graph.
	g := graph.RandomRegular(48, 6, 3)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 1024, 6.0, 0, 1)
	phi, stats, err := SolveMulti(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds > 3*classCount(o)+5 {
		t.Fatalf("rounds=%d want O(log β)", stats.Rounds)
	}
}

func TestSolveMultiWithDefects(t *testing.T) {
	g := graph.RandomRegular(60, 10, 7)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 2048, 4.0, 3, 2)
	phi, _, err := SolveMulti(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMultiGap(t *testing.T) {
	// Generalized OLDC: colors within distance 2 conflict.
	g := graph.RandomRegular(40, 6, 9)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 4096, 8.0, 1, 3)
	phi, _, err := SolveMulti(eng, in, Options{Gap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDCGap(o, in.Lists, phi, 2); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMultiRoundsGrowLogarithmically(t *testing.T) {
	prev := 0
	for _, beta := range []int{4, 16, 64} {
		g := graph.RandomRegular(beta*8, beta, int64(beta))
		o := graph.OrientByID(g)
		in, eng := prepareInput(t, o, 1<<14, 5.0, 2, int64(beta))
		_, stats, err := SolveMulti(eng, in, Options{})
		if err != nil {
			t.Fatalf("β=%d: %v", beta, err)
		}
		if prev > 0 && stats.Rounds > prev*4 {
			t.Fatalf("rounds grew too fast: %d → %d", prev, stats.Rounds)
		}
		prev = stats.Rounds
	}
}

func TestSolveMultiEmptyListFails(t *testing.T) {
	g := graph.Ring(4)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 64, 4.0, 0, 5)
	in.Lists[2] = coloring.NodeList{}
	if _, _, err := SolveMulti(eng, in, Options{}); err == nil {
		t.Fatal("expected error for empty list")
	}
}
