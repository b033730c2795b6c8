package oldc

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// End-to-end Solve benchmarks on regular graphs across the degree range
// the family cache and conflict kernel target. Each iteration is one full
// run (γ-class selection, Phase I, Phase II) on a fresh engine; the
// instance is built once. `ldc-bench -suite oldc` runs the larger
// machine-readable suite (internal/bench) built the same way.
func benchmarkSolve(b *testing.B, n, delta, space int, kappa float64) {
	g := graph.RandomRegular(n, delta, 1)
	o := graph.OrientByID(g)
	init := make([]int, n)
	for i := range init {
		init[i] = i
	}
	inst := coloring.SquareSumOriented(o, space, kappa, 3, 7)
	in := Input{O: o, SpaceSize: space, Lists: inst.Lists, InitColors: init, M: n}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(g)
		if _, _, err := Solve(eng, in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveDelta8(b *testing.B)   { benchmarkSolve(b, 256, 8, 1<<12, 5.0) }
func BenchmarkSolveDelta64(b *testing.B)  { benchmarkSolve(b, 256, 64, 1<<14, 6.0) }
func BenchmarkSolveDelta128(b *testing.B) { benchmarkSolve(b, 256, 128, 1<<15, 6.0) }

// BenchmarkPrepareDelta128 times Solve's preparation — the Lemma 3.8 case
// analysis and the γ-class selection — at the oldc-d128 benchmark
// workload's shape: a 128-regular graph on 1,024 nodes, square-sum lists
// of about 4,700 colors over 2^15 (κ = 6, defects 0, 1 and 3), by-id
// orientation and identity initial colors.
func BenchmarkPrepareDelta128(b *testing.B) {
	g := permutedCirculant(1024, 128, 1)
	in := identityInput(graph.OrientByID(g), 1<<15, 6.0, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prepareTwoPhase(sim.NewEngine(g), in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
