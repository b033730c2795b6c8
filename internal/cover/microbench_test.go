package cover

import (
	"math/rand"
	"slices"
	"testing"
)

func benchSets(size, space int, seed int64) ([]int, []int) {
	rng := rand.New(rand.NewSource(seed))
	return randSet(rng, size, space), randSet(rng, size, space)
}

func BenchmarkMuG(b *testing.B) {
	c, _ := benchSets(64, 1<<14, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MuG(i%(1<<14), c, 2)
	}
}

func BenchmarkConflictWeightG0(b *testing.B) {
	c1, c2 := benchSets(64, 1<<14, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConflictWeight(c1, c2, 0)
	}
}

func BenchmarkConflictWeightG2(b *testing.B) {
	c1, c2 := benchSets(64, 1<<14, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConflictWeight(c1, c2, 2)
	}
}

func BenchmarkTauGConflict(b *testing.B) {
	c1, c2 := benchSets(64, 1<<14, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TauGConflict(c1, c2, 2, 0)
	}
}

func BenchmarkFamily(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	list := randSet(rng, 256, 1<<14)
	ty := Type{InitColor: 7, List: list, SetSize: 32, NumSets: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ty.InitColor = i
		Family(ty)
	}
}

func BenchmarkPsiCount(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	list1 := randSet(rng, 256, 1<<14)
	list2 := randSet(rng, 256, 1<<14)
	k1 := Family(Type{InitColor: 1, List: list1, SetSize: 32, NumSets: 16})
	k2 := Family(Type{InitColor: 2, List: list2, SetSize: 32, NumSets: 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PsiCount(k1, k2, 2, 0)
	}
}

// BenchmarkFamilyConflictMask measures the batched family-vs-family
// conflict kernel with a reused kernel — the per-neighbor Phase I
// operation that replaces NumSets separate TauGConflict sweeps — on three
// family shapes:
//
//   - list256: 256-color lists in 2^14, 16 sets of 32;
//   - delta1: a Theorem 1.4 batch on G(16384, 64/16383), 86-color lists
//     in a 97-color space with 16 sets of 12 (about 77 nonzero colors),
//     where most probes hit;
//   - d128: the Δ=128 OLDC instance, lists of thousands of colors in 2^15
//     with 8 sets of 64 (about 480 nonzero colors), where few do.
//
// common/op is the number of nonzero colors the two families share: the
// filter hits of one call.
func BenchmarkFamilyConflictMask(b *testing.B) {
	for _, c := range []struct {
		name                          string
		list, space, setSize, numSets int
	}{
		{"list256", 256, 1 << 14, 32, 16},
		{"delta1", 86, 97, 12, 16},
		{"d128", 4000, 1 << 15, 64, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			f1 := NewFamilyCache().Get(Type{InitColor: 1, List: randSet(rng, c.list, c.space), SetSize: c.setSize, NumSets: c.numSets})
			f2 := NewFamilyCache().Get(Type{InitColor: 2, List: randSet(rng, c.list, c.space), SetSize: c.setSize, NumSets: c.numSets})
			common := 0
			for _, x := range f2.NzColors {
				if _, ok := slices.BinarySearch(f1.NzColors, x); ok {
					common++
				}
			}
			var k ConflictKernel
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.FamilyConflictMask(f1, f2, 2, 0)
			}
			b.ReportMetric(float64(common), "common/op")
		})
	}
}

// BenchmarkFamilyCacheHit measures the steady-state cost of familyOf via
// the memoization cache (an allocation-free hash probe under a read lock),
// the operation that replaces a full Family derivation per neighbor per
// round.
func BenchmarkFamilyCacheHit(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ty := Type{InitColor: 7, List: randSet(rng, 256, 1<<14), SetSize: 32, NumSets: 16}
	c := NewFamilyCache()
	c.Get(ty)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get(ty)
	}
}

// BenchmarkDeriveFamily times one cached-form derivation, the FamilyCache
// miss path, through a shared arena: a Theorem 1.4 batch list of a Δ≈96
// graph, a mid-size list, and the Δ=128 OLDC instance's shape (lists of
// thousands of colors, 8 sets of 64).
func BenchmarkDeriveFamily(b *testing.B) {
	for _, c := range []struct {
		name                   string
		list, setSize, numSets int
	}{{"list97", 97, 12, 16}, {"list256", 256, 32, 16}, {"list4000", 4000, 64, 8}} {
		b.Run(c.name, func(b *testing.B) {
			list := randSet(rand.New(rand.NewSource(5)), c.list, 1<<15)
			var a familyArena
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%4096 == 0 {
					a = familyArena{} // bound the arena's growth
				}
				deriveFamily(Type{InitColor: i, List: list, SetSize: c.setSize, NumSets: c.numSets}, a.family(), &a)
			}
		})
	}
}
