package graph

import "testing"

func BenchmarkRandomRegular(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomRegular(1024, 8, int64(i))
	}
}

func BenchmarkGNP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GNP(512, 0.05, int64(i))
	}
}

func BenchmarkEulerOrientation(b *testing.B) {
	g := GNP(512, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EulerOrientation(g)
	}
}

func BenchmarkDegeneracyOrientation(b *testing.B) {
	g := PreferentialAttachment(2048, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrientDegeneracy(g)
	}
}

func BenchmarkLineGraph(b *testing.B) {
	g := RandomRegular(256, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LineGraph()
	}
}

// BenchmarkInducedSubgraph times the induced view of a G(n,p) graph,
// n=16384 and average degree 64, on every vertex and on a random third.
func BenchmarkInducedSubgraph(b *testing.B) {
	g := GNP(16384, 64.0/16383, 1)
	all := make([]int, g.N())
	var third []int
	for v := range all {
		all[v] = v
		if v%3 == 0 {
			third = append(third, v)
		}
	}
	for _, c := range []struct {
		name string
		vs   []int
	}{{"all", all}, {"third", third}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.InducedSubgraph(c.vs)
			}
		})
	}
}
