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

// TestFilterAllocs: once a Filter has held a list at least as long and as
// wide, loading another and probing it, through Pos and AppendCommon on
// either side, allocates nothing.
func TestFilterAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	exact, hashed := randSet(rng, 480, 1<<15), randSet(rng, 55, 1<<20)
	probes := randSet(rng, 4000, 1<<15)
	var f Filter
	dst := make([]int32, 0, len(probes))
	for _, list := range [][]int{exact, hashed} {
		f.Load(list)
	}
	for _, list := range [][]int{exact, hashed} {
		allocs := testing.AllocsPerRun(100, func() {
			f.Load(list)
			for _, x := range probes[:64] {
				f.Pos(x)
			}
			dst = f.AppendCommon(dst[:0], probes, 1<<30)
		})
		if allocs != 0 {
			t.Fatalf("exact=%v: warm load and lookups allocated %.1f times", f.exact, allocs)
		}
	}
}
