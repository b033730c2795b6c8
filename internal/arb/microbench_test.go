package arb

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// BenchmarkSolveListArbdefective times one Theorem 1.3 driver run on the
// (Δ+1)-coloring instance of G(4096, 64/4095), the shape of the
// Theorem 1.4 pipeline's driver phase: per-stage bootstraps, induced
// batch views and OLDC batch solves.
func BenchmarkSolveListArbdefective(b *testing.B) {
	g := graph.GNP(4096, 64.0/4095, 1)
	init, m, _, err := linial.Proper(sim.NewEngine(g), graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	if err != nil {
		b.Fatal(err)
	}
	in := coloring.Standard(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveListArbdefective(g, in, init, m, oldc.Solve, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
