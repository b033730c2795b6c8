//go:build !race

// The race detector makes sync.Pool drop items at random, so the pooled
// scratch of the engines and of linial's reduction would show up as
// allocations; this guard runs without it.

package arb

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// TestArbAllocBudget pins an allocation ceiling for one Theorem 1.3 driver
// run on a (Δ+1)-coloring instance. With one map of residual counts per
// node and a graph.Orient that sorted every arc list, the run made about
// 80,200 allocations; with the flat counters and the sort-free Orient it
// makes about 61,400. Putting back either the maps (about 67,500) or the
// sort (about 74,100) trips the budget.
func TestArbAllocBudget(t *testing.T) {
	const budget = 64000
	g := graph.GNP(1024, 24.0/1023, 5)
	init, m := bootstrap(t, g)
	in := coloring.Standard(g)
	cfg := Config{EngineHook: func(e *sim.Engine) { e.SetWorkers(1) }}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := SolveListArbdefective(g, in, init, m, oldc.Solve, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("SolveListArbdefective made %.0f allocations per run, budget %d", allocs, budget)
	}
}
