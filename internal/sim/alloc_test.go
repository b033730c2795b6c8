//go:build !race

// The race detector makes sync.Pool drop items at random, so the pooled
// writers would show up as allocations; these guards run without it.

package sim

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// preallocated broadcasts one fixed payload per node (when sparse, from
// even nodes only; when ignoring, odd nodes ignore their inbox) for four
// rounds, allocating nothing itself, so every byte a run allocates is the
// engine's.
type preallocated struct {
	pl       []Payload
	sparse   bool
	ignoring bool
	round    int
}

func newPreallocated(n int) *preallocated {
	a := &preallocated{pl: make([]Payload, n)}
	for v := range a.pl {
		a.pl[v] = &VarintPayload{Value: uint64(v)}
	}
	return a
}

func (a *preallocated) Outbox(v int, out *Outbox) {
	if a.ignoring && v%2 == 1 {
		out.IgnoreInbox()
	}
	if a.sparse && v%2 == 1 {
		return
	}
	out.Broadcast(a.pl[v])
}
func (a *preallocated) Inbox(int, []Received) {}
func (a *preallocated) Done() bool            { a.round++; return a.round > 4 }

// allocBytes returns the heap bytes f allocates, averaged over reps calls.
func allocBytes(reps int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(reps)
}

var engineSink *Engine

// TestNewEngineAllocatesNothingPerNode pins that construction is O(1):
// routing state is built by the first run, so NewEngineWith makes one
// small allocation for a 64-node and a 4096-node, 65k-edge graph alike.
func TestNewEngineAllocatesNothingPerNode(t *testing.T) {
	for _, g := range []*graph.Graph{graph.RandomRegular(64, 4, 1), graph.RandomRegular(4096, 32, 1)} {
		mk := func() { engineSink = NewEngineWith(g, Options{Workers: 4}) }
		if allocs := testing.AllocsPerRun(20, mk); allocs > 1 {
			t.Errorf("n=%d: NewEngineWith made %.0f allocations, want 1", g.N(), allocs)
		}
		if b := allocBytes(100, mk); b > 1<<10 {
			t.Errorf("n=%d: NewEngineWith allocated %d bytes, want under 1 KiB", g.N(), b)
		}
	}
}

// TestWarmRunAllocGuard pins that an engine keeps its routing storage: a
// second run of the same workload allocates no new slot, sent or ignore
// table, inbox or senders buffer — only the goroutine handoff and the
// Stats slices, about 0.2–1.9 KB against the 22–28 KB the first run sizes
// (go1.24, linux/amd64). The sparse workload has gather compact each
// neighbor list; in the ignoring one, half the nodes skip their inbox.
func TestWarmRunAllocGuard(t *testing.T) {
	g := graph.RandomRegular(1024, 16, 3)
	for _, workers := range []int{1, 2, 4} {
		for _, w := range []struct{ sparse, ignoring bool }{{false, false}, {true, false}, {false, true}} {
			warmRunAllocGuard(t, g, workers, w.sparse, w.ignoring)
		}
	}
}

func warmRunAllocGuard(t *testing.T, g *graph.Graph, workers int, sparse, ignoring bool) {
	eng := NewEngineWith(g, Options{Workers: workers})
	// The algorithm and its payloads are built once, outside the measured
	// runs, so the measurement is the engine's alone.
	a := newPreallocated(g.N())
	a.sparse, a.ignoring = sparse, ignoring
	run := func() {
		a.round = 0
		if _, err := eng.Run(a, 8); err != nil {
			t.Fatal(err)
		}
	}
	first := allocBytes(1, run)
	warm := allocBytes(5, run)
	const budget = 4 << 10
	if warm > budget {
		t.Errorf("workers=%d sparse=%v ignoring=%v: warm run allocated %d bytes (first run %d), budget %d", workers, sparse, ignoring, warm, first, budget)
	}
}

// TestFreshRunAllocBudget pins what an engine built per run — the regime
// of congest, arb and oldc.RepairRegion — allocates: a fresh engine over a
// 1024-node 16-regular graph with 2 workers, eight rounds of one broadcast
// per node. Delivery gathers, so the slot, sent and ignore tables and one
// node's inbox per shard are all it sizes; every node sends, so gather
// compacts no neighbor list. A run allocates about 23,500 B (go1.24,
// linux/amd64); the budget is that plus about 20%.
func TestFreshRunAllocBudget(t *testing.T) {
	g := graph.RandomRegular(1024, 16, 3)
	a := newPreallocated(g.N())
	run := func() {
		a.round = 0
		if _, err := NewEngineWith(g, Options{Workers: 2}).Run(a, 8); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 28_000
	if got := allocBytes(10, run); got > budget {
		t.Errorf("fresh engine run allocated %d bytes, budget %d", got, budget)
	}
}
