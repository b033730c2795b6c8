package oldc

import (
	"testing"

	"repro/internal/algkit"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestSolveAllocBudget pins an allocation ceiling for a full Solve on a
// small Δ=8 instance. The budget sits well above the measured steady
// state, so scheduler noise never trips it, but tight enough that a
// reintroduced per-neighbor or per-round allocation — the regressions the
// arena/kernel work removed — blows through it immediately. CI's
// bench-smoke job runs this test.
func TestSolveAllocBudget(t *testing.T) {
	const n, delta, space = 128, 8, 1 << 12
	g := graph.RandomRegular(n, delta, 1)
	o := graph.OrientByID(g)
	init := make([]int, n)
	for i := range init {
		init[i] = i
	}
	inst := coloring.SquareSumOriented(o, space, 5.0, 3, 7)
	in := Input{O: o, SpaceSize: space, Lists: inst.Lists, InitColors: init, M: n}
	solve := func() {
		eng := sim.NewEngineWith(g, sim.Options{Workers: 1}) // deterministic schedule, no pool churn
		if _, _, err := Solve(eng, in, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, solve)
	// Measured ≈650 on the reference machine; a single reintroduced
	// per-neighbor-per-round allocation adds ≥ n·Δ ≈ 1000 per round.
	const budget = 5000
	if allocs > budget {
		t.Fatalf("Solve allocated %.0f objects, budget %d", allocs, budget)
	}
	t.Logf("Solve allocations: %.0f (budget %d)", allocs, budget)
}

// TestPickColorAllocs: once its scratch is warm, Phase II's pick (the
// filter load of C_v and the probes of every same-class neighbor set and
// higher-class color) allocates nothing. It re-picks the node with the
// most same-class neighbor sets after a Δ=64 run.
func TestPickColorAllocs(t *testing.T) {
	g := permutedCirculant(256, 64, 3)
	in := identityInput(graph.OrientByID(g), 1<<14, 6.0, 3, 5)
	eng := sim.NewEngine(g)
	a, prep, err := prepareTwoPhase(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.sink = eng
	if _, err := eng.RunFrom(a, 0, twoPhaseMaxRounds(a.spec.h), prep); err != nil {
		t.Fatal(err)
	}
	best, most := 0, -1
	for v := 0; v < g.N(); v++ {
		k := 0
		for p := a.csr.Off[v]; p < a.csr.Off[v+1]; p++ {
			if a.nbrCv[p] != nil && a.nbrType[p].gclass == a.spec.gclass[v] {
				k++
			}
		}
		if k > most {
			best, most = v, k
		}
	}
	if most < 1 {
		t.Fatal("no node has a same-class neighbor set")
	}
	var sc algkit.Scratch
	a.pickColor(best, &sc)
	if allocs := testing.AllocsPerRun(100, func() { a.pickColor(best, &sc) }); allocs != 0 {
		t.Fatalf("warm pick of node %d (%d same-class sets) allocated %.1f times", best, most, allocs)
	}
}
