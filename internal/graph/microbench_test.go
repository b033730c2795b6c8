package graph

import (
	"bytes"
	"strconv"
	"testing"
)

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

// BenchmarkLoadEdgeList loads the text of one G(n,p) graph, n=16384 and
// average degree 64 (about 524K lines).
func BenchmarkLoadEdgeList(b *testing.B) {
	var text []byte
	GNP(16384, 64.0/16383, 1).ForEachEdge(func(u, v int) {
		text = strconv.AppendInt(text, int64(u), 10)
		text = append(text, ' ')
		text = strconv.AppendInt(text, int64(v), 10)
		text = append(text, '\n')
	})
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadEdgeList(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
