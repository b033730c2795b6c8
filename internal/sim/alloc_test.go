//go:build !race

// The race detector makes sync.Pool drop items at random, so the pooled
// writers would show up as allocations; these guards run without it.

package sim

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// preallocated broadcasts one fixed payload per node (plus, when
// targeted, a send to the first neighbor) for four rounds, allocating
// nothing itself, so every byte a run allocates is the engine's.
type preallocated struct {
	pl       []Payload
	targeted bool
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
	out.Broadcast(a.pl[v])
	if a.targeted && len(out.neighbors) > 0 {
		out.SendTo(int(out.neighbors[0]), a.pl[v])
	}
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
		mk := func() { engineSink = NewEngineWith(g, Options{Workers: 4, Validate: true}) }
		if allocs := testing.AllocsPerRun(20, mk); allocs > 1 {
			t.Errorf("n=%d: NewEngineWith made %.0f allocations, want 1", g.N(), allocs)
		}
		if b := allocBytes(100, mk); b > 1<<10 {
			t.Errorf("n=%d: NewEngineWith allocated %d bytes, want under 1 KiB", g.N(), b)
		}
	}
}

// TestWarmRunAllocGuard pins that an engine keeps its routing storage: a
// second run of the same workload allocates no new arena, queue, sends or
// target storage — only the goroutine handoff and the Stats slices, a few
// hundred bytes against the ~1 MB the first run sizes.
func TestWarmRunAllocGuard(t *testing.T) {
	g := graph.RandomRegular(1024, 16, 3)
	for _, workers := range []int{1, 2, 4} {
		eng := NewEngineWith(g, Options{Workers: workers})
		run := func() {
			a := newPreallocated(g.N())
			a.targeted = true
			if _, err := eng.Run(a, 8); err != nil {
				t.Fatal(err)
			}
		}
		payloads := allocBytes(5, func() { newPreallocated(g.N()) })
		first := allocBytes(1, run) - payloads
		warm := allocBytes(5, run) - payloads
		const budget = 4 << 10
		if warm > budget {
			t.Errorf("workers=%d: warm run allocated %d bytes (first run %d), budget %d", workers, warm, first, budget)
		}
	}
}

// TestFreshRunAllocBudget pins that an engine built per run — the regime
// of congest, arb and oldc.RepairRegion — allocates no more than the
// serial two-pass router this engine replaced did for the same run: a
// fresh engine over a 1024-node 16-regular graph with 2 workers, eight
// rounds of one broadcast per node, with and without an extra targeted
// send. The budgets were measured on that router (go1.24, linux/amd64).
func TestFreshRunAllocBudget(t *testing.T) {
	g := graph.RandomRegular(1024, 16, 3)
	for _, tc := range []struct {
		targeted bool
		budget   uint64
	}{{false, 501_707}, {true, 574_880}} {
		a := newPreallocated(g.N())
		a.targeted = tc.targeted
		run := func() {
			a.round = 0
			if _, err := NewEngineWith(g, Options{Workers: 2}).Run(a, 8); err != nil {
				t.Fatal(err)
			}
		}
		if got := allocBytes(10, run); got > tc.budget {
			t.Errorf("targeted=%v: fresh engine run allocated %d bytes, serial router budget %d", tc.targeted, got, tc.budget)
		}
	}
}
