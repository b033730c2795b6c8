package csr

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/oldc"
	"repro/internal/sim"
)

func makeInput(t *testing.T, o *graph.Oriented, spaceSize int, kappa float64, maxDefect int, seed int64) (oldc.Input, *sim.Engine) {
	t.Helper()
	g := o.Graph()
	eng := sim.NewEngine(g)
	init, m, _, err := linial.Proper(eng, graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	if err != nil {
		t.Fatal(err)
	}
	// Defects at least 1: recursive slack dilution makes defect-0 colors
	// fragile at laptop scale (see DESIGN.md substitution 2).
	inst, err := coloring.SquareSumOrientedRange(o, spaceSize, kappa, 1, maxDefect, seed)
	if err != nil {
		t.Fatal(err)
	}
	return oldc.Input{O: o, SpaceSize: spaceSize, Lists: inst.Lists, InitColors: init, M: m}, eng
}

func TestLevelsFor(t *testing.T) {
	for _, tc := range []struct{ space, p, want int }{
		{16, 4, 2}, {17, 4, 3}, {4, 4, 1}, {3, 4, 1}, {64, 2, 6}, {1000, 10, 3},
	} {
		if got := levelsFor(tc.space, tc.p); got != tc.want {
			t.Fatalf("levelsFor(%d,%d)=%d want %d", tc.space, tc.p, got, tc.want)
		}
	}
}

func TestReduceSolvesInstance(t *testing.T) {
	g := graph.RandomRegular(48, 6, 3)
	o := graph.OrientByID(g)
	in, eng := makeInput(t, o, 1<<10, 10.0, 2, 1)
	phi, _, err := Reduce(eng, in, Config{P: 32, Kappa: 1.2}, oldc.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
		t.Fatal(err)
	}
}

func TestReduceDeepRecursion(t *testing.T) {
	g := graph.RandomRegular(40, 5, 5)
	o := graph.OrientByID(g)
	in, eng := makeInput(t, o, 1<<12, 16.0, 1, 2)
	phi, stats, err := Reduce(eng, in, Config{P: 8, Kappa: 1.1}, oldc.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
		t.Fatal(err)
	}
	// 4 levels of log_8(4096): rounds must be roughly 4× a single solve.
	if stats.Rounds < 4 {
		t.Fatalf("rounds=%d suspiciously small for 4 levels", stats.Rounds)
	}
}

func TestReduceMessageSizeShrinks(t *testing.T) {
	// Corollary 4.2: deeper recursion → smaller messages (|C|^{1/r}·B).
	g := graph.RandomRegular(48, 6, 9)
	o := graph.OrientByID(g)

	in1, eng1 := makeInput(t, o, 1<<12, 12.0, 1, 3)
	_, direct, err := oldc.Solve(eng1, in1, oldc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in2, eng2 := makeInput(t, o, 1<<12, 12.0, 1, 3)
	phi, reduced, err := Reduce(eng2, in2, Config{P: 16, Kappa: 1.1}, oldc.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDC(o, in2.Lists, phi); err != nil {
		t.Fatal(err)
	}
	if reduced.MaxMessageBits >= direct.MaxMessageBits {
		t.Fatalf("CSR did not shrink messages: %d vs direct %d bits",
			reduced.MaxMessageBits, direct.MaxMessageBits)
	}
}

func TestReduceWithAutoP(t *testing.T) {
	g := graph.RandomRegular(40, 5, 13)
	o := graph.OrientByID(g)
	in, eng := makeInput(t, o, 1<<12, 14.0, 2, 8)
	// p = 16 is Corollary 4.1's arity 2^⌈√(log₂|C|·log₂κ)⌉ at |C| = 2^12
	// and log₂κ = 1.
	phi, _, err := Reduce(eng, in, Config{P: 16, Kappa: 1.1}, oldc.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
		t.Fatal(err)
	}
}

func TestReduceRejectsBadArity(t *testing.T) {
	g := graph.Ring(8)
	o := graph.OrientByID(g)
	in, eng := makeInput(t, o, 64, 4.0, 0, 4)
	if _, _, err := Reduce(eng, in, Config{P: 1}, oldc.Solve); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestReduceSmallSpaceDelegates(t *testing.T) {
	// |C| ≤ p: exactly one base-solver call, same behavior as direct solve.
	g := graph.RandomRegular(32, 4, 7)
	o := graph.OrientByID(g)
	in, eng := makeInput(t, o, 64, 8.0, 1, 5)
	phi, _, err := Reduce(eng, in, Config{P: 64, Kappa: 1}, oldc.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
		t.Fatal(err)
	}
}

func TestReduceEmptyListError(t *testing.T) {
	g := graph.Ring(6)
	o := graph.OrientByID(g)
	in, eng := makeInput(t, o, 256, 4.0, 0, 6)
	in.Lists[3] = coloring.NodeList{}
	if _, _, err := Reduce(eng, in, Config{P: 4, Kappa: 1}, oldc.Solve); err == nil {
		t.Fatal("expected empty-list error")
	}
}
