//go:build !race

// The race detector makes sync.Pool drop items at random, so the pooled
// reduction scratch would show up as allocations; this guard runs without
// it.

package linial

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestReduceInboxAllocs pins that a warm reduceAlg.Inbox call allocates
// nothing: its buffers live in the pooled scratch. It covers a proper step
// (opponent collection, digit expansion and the early-exit scan) and the
// defective GF(7) degree-4 step (the record compare), each after the
// Outbox calls that fill the records.
func TestReduceInboxAllocs(t *testing.T) {
	const leaves = 40
	b := graph.NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, i)
	}
	o := graph.OrientSymmetric(b.Build())
	colors := make([]int, leaves+1)
	in := make([]sim.Received, leaves)
	for i := range in {
		colors[i+1] = 311*(i+1) + 7
		in[i] = sim.Received{From: i + 1, Payload: sim.UintPayload{Value: uint64(colors[i+1]), Width: bitio.WidthFor(16384)}}
	}
	colors[0] = 5000
	for _, step := range []struct {
		sp     stepParams
		budget int
	}{{stepParams{q: 127, deg: 2}, 0}, {stepParams{q: 7, deg: 4}, 64}} {
		a := newReduceAlg(o, colors, 16384, Schedule{Steps: []stepParams{step.sp}, Budgets: []int{step.budget}, Final: step.sp.q * step.sp.q})
		var ob sim.Outbox
		for v := range colors {
			a.Outbox(v, &ob)
		}
		a.Inbox(0, in) // warm the pooled scratch
		if allocs := testing.AllocsPerRun(100, func() { a.Inbox(0, in) }); allocs != 0 {
			t.Fatalf("(%d,%d) budget %d: warm reduceAlg.Inbox allocated %.1f times per call", step.sp.q, step.sp.deg, step.budget, allocs)
		}
	}
}
