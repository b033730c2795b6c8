package baseline

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestSlowFold(t *testing.T) {
	g := graph.RandomRegular(40, 5, 1)
	eng := sim.NewEngine(g)
	phi, stats, err := SlowFold(eng, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckProper(g, phi, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
	// O(Δ²)-ish rounds: folding from ≈(2Δ)² colors down to Δ+1.
	if stats.Rounds < g.MaxDegree() {
		t.Fatalf("rounds=%d suspiciously low", stats.Rounds)
	}
}

func TestLinearDeltaPlusOne(t *testing.T) {
	g := graph.GNP(60, 0.12, 2)
	eng := sim.NewEngine(g)
	phi, stats, err := LinearDeltaPlusOne(eng, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckProper(g, phi, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds > 8*g.MaxDegree()+40 {
		t.Fatalf("rounds=%d not O(Δ + log* n)", stats.Rounds)
	}
}

func TestLinearBeatsSlowForLargeDelta(t *testing.T) {
	g := graph.RandomRegular(64, 16, 3)
	e1 := sim.NewEngine(g)
	_, slow, err := SlowFold(e1, g)
	if err != nil {
		t.Fatal(err)
	}
	e2 := sim.NewEngine(g)
	_, lin, err := LinearDeltaPlusOne(e2, g)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Rounds >= slow.Rounds {
		t.Fatalf("linear (%d rounds) should beat slow fold (%d rounds) at Δ=16", lin.Rounds, slow.Rounds)
	}
}

func TestLuby(t *testing.T) {
	g := graph.RandomRegular(80, 8, 5)
	eng := sim.NewEngine(g)
	phi, stats, err := Luby(eng, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.CheckProper(g, phi, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds > 60 {
		t.Fatalf("rounds=%d not O(log n)-ish", stats.Rounds)
	}
}

func TestLubyDeterministicPerSeed(t *testing.T) {
	g := graph.GNP(50, 0.1, 9)
	run := func(seed int64) coloring.Assignment {
		eng := sim.NewEngine(g)
		phi, _, err := Luby(eng, g, seed)
		if err != nil {
			t.Fatal(err)
		}
		return phi
	}
	a, b := run(3), run(3)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestDivideConquer(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Ring(24),
		graph.RandomRegular(48, 8, 7),
		graph.GNP(64, 0.15, 9),
		graph.Clique(10),
	} {
		phi, stats, err := DivideConquer(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := coloring.CheckProper(g, phi, g.MaxDegree()+1); err != nil {
			t.Fatal(err)
		}
		if stats.Rounds == 0 && g.MaxDegree() > 2 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestDivideConquerRoundsLinearInDelta(t *testing.T) {
	// T(Δ) = T(Δ/2) + O(Δ): rounds should grow ≈ linearly with Δ.
	g1 := graph.RandomRegular(64, 8, 3)
	_, s1, err := DivideConquer(g1)
	if err != nil {
		t.Fatal(err)
	}
	g2 := graph.RandomRegular(256, 32, 3)
	_, s2, err := DivideConquer(g2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Rounds > 12*s1.Rounds {
		t.Fatalf("rounds grew %d → %d for 4× Δ (superlinear)", s1.Rounds, s2.Rounds)
	}
}

func TestExactArbdefective(t *testing.T) {
	g := graph.RandomRegular(64, 12, 21)
	for _, tc := range []struct{ q, d int }{{13, 0}, {7, 1}, {4, 3}, {2, 11}} {
		eng := sim.NewEngine(g)
		phi, orient, stats, err := ExactArbdefective(eng, g, tc.q, tc.d)
		if err != nil {
			t.Fatalf("q=%d d=%d: %v", tc.q, tc.d, err)
		}
		if err := coloring.CheckOrientedDefective(orient, phi, tc.q, tc.d); err != nil {
			t.Fatal(err)
		}
		if stats.Rounds > 8*g.MaxDegree()+40 {
			t.Fatalf("rounds=%d not O(Δ + log* n)", stats.Rounds)
		}
	}
}

func TestExactArbdefectiveRejects(t *testing.T) {
	g := graph.Clique(8)
	if _, _, _, err := ExactArbdefective(sim.NewEngine(g), g, 3, 1); err == nil {
		t.Fatal("q(d+1) ≤ Δ must be rejected")
	}
}

func TestGK21Rounds(t *testing.T) {
	if GK21Rounds(16, 1024) != 4*4*10 {
		t.Fatalf("GK21Rounds(16,1024)=%d", GK21Rounds(16, 1024))
	}
	if GK21Rounds(0, 0) <= 0 {
		t.Fatal("degenerate inputs must stay positive")
	}
}
