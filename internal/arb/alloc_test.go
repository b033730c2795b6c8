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
// run on a (Δ+1)-coloring instance. With a Builder, a HasArc-closure
// Orient and a member map per batch, an append-based graph.Orient and a
// map of batch arc directions, the run made about 60,800 allocations; with
// flat induced views, a flat Orient and the per-edge direction record it
// makes about 11,980. Putting back the per-batch Builder path (about
// 13,750), per-list appends in the induced views (about 22,840) or in
// Orient (about 31,790) trips the budget.
func TestArbAllocBudget(t *testing.T) {
	const budget = 12500
	g := graph.GNP(1024, 24.0/1023, 5)
	init, m := bootstrap(t, g)
	in := coloring.Standard(g)
	cfg := Config{Engine: sim.Options{Workers: 1}}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := SolveListArbdefective(g, in, init, m, oldc.Solve, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("SolveListArbdefective made %.0f allocations per run, budget %d", allocs, budget)
	}
}
