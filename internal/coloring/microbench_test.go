package coloring

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkSquareSumOriented draws the lists of the oldc-d128 benchmark
// workload (2^15 colors, κ=6, defects 0–3) on a 128-regular graph, n=256.
func BenchmarkSquareSumOriented(b *testing.B) {
	o := graph.OrientByID(graph.RandomRegular(256, 128, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquareSumOriented(o, 1<<15, 6.0, 3, int64(i))
	}
}

// BenchmarkSquareSumOrientedSparse draws lists far shorter than their
// space (2^20 colors, κ=5, defects 1–2 on an 8-regular graph, n=4096),
// which are sorted rather than read off the set of drawn colors.
func BenchmarkSquareSumOrientedSparse(b *testing.B) {
	o := graph.OrientByID(graph.RandomRegular(4096, 8, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SquareSumOrientedRange(o, 1<<20, 5, 1, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
