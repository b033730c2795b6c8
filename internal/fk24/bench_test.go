package fk24

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// End-to-end Solve benchmarks at the default 2β̂+2 buckets, where a node
// has few same-bucket neighbors, and at four buckets, where about a
// quarter of its neighbors share its bucket and the commit pick probes
// each of their sets. Each iteration is one run on a fresh engine;
// the instance is built once.
func benchmarkSolve(b *testing.B, n, delta, space, buckets int) {
	g := graph.RandomRegular(n, delta, 1)
	in := prepareInput(graph.OrientByID(g), space, 6.0, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(sim.NewEngine(g), in, Options{Buckets: buckets, SkipValidate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveDelta16(b *testing.B)         { benchmarkSolve(b, 256, 16, 1<<12, 0) }
func BenchmarkSolveDelta64(b *testing.B)         { benchmarkSolve(b, 256, 64, 1<<14, 0) }
func BenchmarkSolveDelta64Buckets4(b *testing.B) { benchmarkSolve(b, 256, 64, 1<<14, 4) }
