package linial

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func BenchmarkProperLinial(b *testing.B) {
	g := graph.RandomRegular(2048, 8, 1)
	o := graph.OrientSymmetric(g)
	ids := IDs(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Proper(sim.NewEngine(g), o, ids, g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowShiftReduce(b *testing.B) {
	g := graph.RandomRegular(512, 8, 2)
	o := graph.OrientSymmetric(g)
	ids := IDs(g.N())
	colors, m, _, err := Proper(sim.NewEngine(g), o, ids, g.N())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ReduceToP(sim.NewEngine(g), g, colors, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaPlusOne(b *testing.B) {
	g := graph.RandomRegular(512, 8, 3)
	ids := IDs(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DeltaPlusOne(sim.NewEngine(g), g, ids, g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArbdefectiveBootstrap(b *testing.B) {
	g := graph.RandomRegular(256, 16, 4)
	ids := IDs(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Arbdefective(sim.NewEngine(g), g, ids, g.N(), 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceInbox times one reduceAlg.Inbox call at the center of a
// 64-leaf star on a symmetric orientation, at the defective GF(7)
// degree-4 step that is stage 1's only step on G(16384, 64/16383): the
// argmin counts every point, comparing the value records that every
// node's Outbox stored, as the engine runs them, before the timed calls.
func BenchmarkReduceInbox(b *testing.B) {
	const leaves = 64
	sp := stepParams{q: 7, deg: 4}
	bld := graph.NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		bld.AddEdge(0, i)
	}
	o := graph.OrientSymmetric(bld.Build())
	colors := make([]int, leaves+1)
	in := make([]sim.Received, leaves)
	for i := range in {
		colors[i+1] = (7919*(i+1) + 13) % 16807
		in[i] = sim.Received{From: i + 1, Payload: sim.UintPayload{Value: uint64(colors[i+1]), Width: 15}}
	}
	colors[0] = 4242
	a := newReduceAlg(o, colors, 16807, Schedule{Steps: []stepParams{sp}, Budgets: []int{8}, Final: sp.q * sp.q})
	var ob sim.Outbox
	for v := range colors {
		a.Outbox(v, &ob)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Inbox(0, in)
	}
}
