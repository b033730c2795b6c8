//go:build !race

package oldc

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestSolveAllocBytes pins the bytes one warm Solve allocates at
// BenchmarkSolveDelta128's shape (n = 256, Δ = 128, |C| = 2^15, κ = 6),
// where TestSolveAllocBudget counts objects only and so misses a large
// buffer. Measured about 20–22 MB on the reference machine; a per-solve
// copy of every list (the case analysis's former arena) came to about
// 30–32 MB. A solve allocates about as much as the live heap, so a GC
// during it can empty sync.Pools warmed but not yet reused; the guard
// takes the least of three solves, which one such drop does not raise.
// It is not run under the race detector, where sync.Pool drops pooled
// scratch and the count grows by about 5 MB.
func TestSolveAllocBytes(t *testing.T) {
	g := permutedCirculant(256, 128, 1)
	in := identityInput(graph.OrientByID(g), 1<<15, 6.0, 3, 7)
	solve := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng := sim.NewEngine(g)
		eng.SetWorkers(1)
		if _, _, err := Solve(eng, in, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	solve() // warm the pools
	const budget = 25 << 20
	got := min(solve(), solve(), solve())
	if got > budget {
		t.Fatalf("Solve allocated %d bytes, budget %d", got, budget)
	}
	t.Logf("Solve allocated %d bytes (budget %d)", got, budget)
}
