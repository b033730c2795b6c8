package cover

import (
	"math/rand"
	"testing"
)

// Allocation-regression guards for the solve hot path: the cache hit and
// the batched kernel are executed per neighbor per round, so a single
// stray allocation in either multiplies into tens of thousands per solve.
// CI's bench-smoke job runs these alongside the microbenchmarks.

func TestFamilyCacheHitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ty := Type{InitColor: 7, List: randSet(rng, 256, 1<<14), SetSize: 32, NumSets: 16}
	c := NewFamilyCache()
	c.Get(ty)
	if allocs := testing.AllocsPerRun(100, func() { c.Get(ty) }); allocs != 0 {
		t.Fatalf("cache hit allocated %.1f times; the probe path must be allocation-free", allocs)
	}
}

func TestConflictKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f1 := NewFamilyCache().Get(Type{InitColor: 1, List: randSet(rng, 256, 1<<14), SetSize: 32, NumSets: 16})
	f2 := NewFamilyCache().Get(Type{InitColor: 2, List: randSet(rng, 256, 1<<14), SetSize: 32, NumSets: 16})
	var k ConflictKernel
	k.FamilyConflictMask(f1, f2, 2, 0)
	allocs := testing.AllocsPerRun(100, func() { k.FamilyConflictMask(f1, f2, 2, 0) })
	if allocs != 0 {
		t.Fatalf("reused kernel allocated %.1f times per call", allocs)
	}
}
