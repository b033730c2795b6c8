package cover

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCachedFamilyMatchesFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		ty := Type{
			InitColor: rng.Intn(100),
			List:      randSet(rng, 1+rng.Intn(80), 1+rng.Intn(2000)),
			SetSize:   1 + rng.Intn(20),
			NumSets:   1 + rng.Intn(10),
		}
		cf := NewCachedFamily(ty)
		want := Family(ty)
		if !reflect.DeepEqual(cf.Sets, want) {
			t.Fatalf("type %d: cached sets diverge from Family", i)
		}
		if !reflect.DeepEqual(cf.List, ty.List) {
			t.Fatalf("type %d: cached list diverges from the type's list", i)
		}
		// The compact index is the exact transpose of set membership: each
		// list color covered by at least one set appears once, in list
		// order, with the mask of exactly the sets containing it.
		k := 0
		for _, x := range ty.List {
			var m uint64
			for s, set := range cf.Sets {
				if contains(set, x) {
					m |= 1 << uint(s)
				}
			}
			if m == 0 {
				continue
			}
			if k >= len(cf.NzColors) || cf.NzColors[k] != x || cf.NzMask[k] != m {
				t.Fatalf("type %d: compact row %d disagrees with membership of color %d", i, k, x)
			}
			k++
		}
		if k != len(cf.NzColors) || len(cf.NzColors) != len(cf.NzMask) {
			t.Fatalf("type %d: %d compact rows, expected %d", i, len(cf.NzColors), k)
		}
	}
}

// TestFamilyConflictMaskMatchesReference pins the batched bit-sliced
// family kernel to the scalar set-by-set sweep for every τ and gap the
// algorithms use, including τ values around each pair's exact conflict
// weight (the threshold compare's edge), one kernel switching between own
// families, and probe-filter aliasing.
func TestFamilyConflictMaskMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			space := 64 + rng.Intn(1500)
			mk := func() *CachedFamily {
				return NewCachedFamily(Type{
					InitColor: rng.Intn(100),
					List:      randSet(rng, 1+rng.Intn(60), space),
					SetSize:   1 + rng.Intn(16),
					NumSets:   1 + rng.Intn(20),
				})
			}
			f1, f2 := mk(), mk()
			var k ConflictKernel
			for _, g := range []int{0, 1, 3} {
				for _, tau := range tauEdges(f1, f2, g) {
					want := familyConflictMaskSlow(f1, f2, tau, g)
					if k.FamilyConflictMask(f1, f2, tau, g) != want {
						return false
					}
					// The reused kernel must leave no state behind: a second
					// call and the one-shot form agree with the first.
					if k.FamilyConflictMask(f1, f2, tau, g) != want {
						return false
					}
					if FamilyConflictMask(f1, f2, tau, g) != want {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatal(err)
		}
	})
	// One kernel serves a run of calls whose own family changes at random,
	// as a pooled kernel does across nodes; an empty family (no sets) and a
	// family of an empty list are among the owns.
	t.Run("alternating-own", func(t *testing.T) {
		rng := rand.New(rand.NewSource(51))
		fams := []*CachedFamily{
			NewCachedFamily(Type{InitColor: 1, List: randSet(rng, 50, 400), SetSize: 8, NumSets: 12}),
			NewCachedFamily(Type{InitColor: 2, List: randSet(rng, 200, 400), SetSize: 30, NumSets: 40}),
			NewCachedFamily(Type{InitColor: 3, List: randSet(rng, 9, 400), SetSize: 4, NumSets: 64}),
			NewCachedFamily(Type{InitColor: 4, List: randSet(rng, 30, 400), SetSize: 5, NumSets: 0}),
			NewCachedFamily(Type{InitColor: 5, List: nil, SetSize: 5, NumSets: 8}),
		}
		var k ConflictKernel
		for i := 0; i < 2000; i++ {
			f1, f2 := fams[rng.Intn(len(fams))], fams[rng.Intn(len(fams))]
			g, tau := rng.Intn(3), 1+rng.Intn(4)
			if got, want := k.FamilyConflictMask(f1, f2, tau, g), familyConflictMaskSlow(f1, f2, tau, g); got != want {
				t.Fatalf("call %d (g=%d τ=%d): mask %x, want %x", i, g, tau, got, want)
			}
			if rng.Intn(10) == 0 {
				k.Unload()
			}
		}
	})
	// The neighbor's colors sit a multiple of the filter size away from the
	// own colors, so nearly every probe hits an aliased filter bit and
	// only the search can reject it; colors near 0 with g > 0 probe below
	// zero.
	t.Run("aliased", func(t *testing.T) {
		rng := rand.New(rand.NewSource(52))
		for trial := 0; trial < 200; trial++ {
			own := randSet(rng, 24, 40)
			nbr := make([]int, 0, 2*len(own))
			for _, x := range own {
				switch rng.Intn(3) {
				case 0:
					nbr = append(nbr, x) // a true common color
				default:
					nbr = append(nbr, x+(1+rng.Intn(1<<20))*4096)
				}
			}
			sort.Ints(nbr)
			nbr = slices.Compact(nbr)
			f1 := NewCachedFamily(Type{InitColor: 1, List: own, SetSize: 8, NumSets: 16})
			f2 := NewCachedFamily(Type{InitColor: 2, List: nbr, SetSize: 8, NumSets: 16})
			var k ConflictKernel
			for _, g := range []int{0, 1, 2, 5} {
				for _, tau := range tauEdges(f1, f2, g) {
					if got, want := k.FamilyConflictMask(f1, f2, tau, g), familyConflictMaskSlow(f1, f2, tau, g); got != want {
						t.Fatalf("trial %d g=%d τ=%d: mask %x, want %x", trial, g, tau, got, want)
					}
				}
			}
		}
	})
}

// tauEdges returns the τ values worth checking for a family pair: small
// ones, each side of the largest pairwise conflict weight, and the counter
// maximum.
func tauEdges(f1, f2 *CachedFamily, g int) []int {
	maxW := 0
	for _, c1 := range f1.Sets {
		for _, c2 := range f2.Sets {
			if w := ConflictWeight(c1, c2, g); w > maxW {
				maxW = w
			}
		}
	}
	var out []int
	for _, tau := range []int{1, 2, 3, maxW - 1, maxW, maxW + 1, kernelMaxTau} {
		if tau >= 1 {
			out = append(out, tau)
		}
	}
	return out
}

// TestConflictKernelFilterBounded pins the probe filter's memory to the
// family, not the color values: colors near 2^30 cost at most 16 bytes
// per nonzero color (a color-indexed table would need 128 MB).
func TestConflictKernelFilterBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	list := randSet(rng, 600, 1<<20)
	for i := range list {
		list[i] += 1<<30 - 1<<20
	}
	for _, numSets := range []int{1, 16, 64} {
		own := NewCachedFamily(Type{InitColor: 1, List: list, SetSize: 32, NumSets: numSets})
		nbr := NewCachedFamily(Type{InitColor: 2, List: list, SetSize: 32, NumSets: 16})
		var k ConflictKernel
		k.FamilyConflictMask(own, nbr, 2, 0)
		if got, limit := 8*cap(k.filter), 16*len(own.NzColors); got > limit {
			t.Errorf("%d sets: filter holds %d bytes for %d nonzero colors, limit %d", numSets, got, len(own.NzColors), limit)
		}
	}
}

// TestFamilyConflictMaskFallbacks covers the paths that bypass the
// bit-sliced counters: families beyond 64 sets (no compact membership
// index) and τ beyond the counter range.
func TestFamilyConflictMaskFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	big := NewCachedFamily(Type{InitColor: 1, List: randSet(rng, 50, 900), SetSize: 6, NumSets: 70})
	if big.NzMask != nil {
		t.Fatal("families beyond 64 sets must not carry the compact membership index")
	}
	small := NewCachedFamily(Type{InitColor: 2, List: randSet(rng, 50, 900), SetSize: 6, NumSets: 8})
	for _, pair := range [][2]*CachedFamily{{big, small}, {small, big}, {big, big}} {
		if got, want := FamilyConflictMask(pair[0], pair[1], 2, 0), familyConflictMaskSlow(pair[0], pair[1], 2, 0); got != want {
			t.Fatalf("fallback mask %x want %x", got, want)
		}
	}
	if got, want := FamilyConflictMask(small, small, kernelMaxTau+1, 0), familyConflictMaskSlow(small, small, kernelMaxTau+1, 0); got != want {
		t.Fatalf("large-τ fallback mask %x want %x", got, want)
	}
	empty := NewCachedFamily(Type{InitColor: 3, List: nil, SetSize: 4, NumSets: 8})
	if FamilyConflictMask(empty, small, 2, 0) != 0 || FamilyConflictMask(small, empty, 2, 0) != 0 {
		t.Fatal("empty families conflict with nothing")
	}
}

func TestFamilyCacheHitsAndKeying(t *testing.T) {
	c := NewFamilyCache()
	t1 := Type{InitColor: 3, List: []int{1, 5, 9, 13}, SetSize: 2, NumSets: 3}
	f1 := c.Get(t1)
	if c.Get(t1) != f1 {
		t.Fatal("equal types must hit the same cache entry")
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d want 1", c.Len())
	}
	// Every field participates in the key.
	for _, t2 := range []Type{
		{InitColor: 4, List: []int{1, 5, 9, 13}, SetSize: 2, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9, 14}, SetSize: 2, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9}, SetSize: 2, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9, 13}, SetSize: 3, NumSets: 3},
		{InitColor: 3, List: []int{1, 5, 9, 13}, SetSize: 2, NumSets: 4},
	} {
		if c.Get(t2) == f1 {
			t.Fatalf("distinct type %+v must not collide", t2)
		}
	}
	if c.Len() != 6 {
		t.Fatalf("Len=%d want 6", c.Len())
	}
	// Long lists are hashed from a sample of positions, so lists that
	// differ only off the sample share a hash and the compare must tell
	// them apart; a copy of a list hits like the list itself.
	long := make([]int, 64)
	for i := range long {
		long[i] = 3 * i
	}
	other := append([]int(nil), long...)
	other[1]++
	tl := Type{InitColor: 3, List: long, SetSize: 4, NumSets: 3}
	to := Type{InitColor: 3, List: other, SetSize: 4, NumSets: 3}
	if typeHash(tl) != typeHash(to) {
		t.Fatal("setup: the lists must differ only off the hash sample")
	}
	fl := c.Get(tl)
	if c.Get(to) == fl {
		t.Fatal("lists differing off the hash sample must not collide")
	}
	if c.Get(Type{InitColor: 3, List: append([]int(nil), long...), SetSize: 4, NumSets: 3}) != fl {
		t.Fatal("a copy of a cached list must hit its entry")
	}
}

func TestFamilyCacheConcurrentDeterminism(t *testing.T) {
	// Concurrent Gets for overlapping types (the engine's parallel Inbox
	// callbacks) must all observe families identical to the direct
	// derivation, regardless of interleaving.
	rng := rand.New(rand.NewSource(21))
	types := make([]Type, 32)
	for i := range types {
		types[i] = Type{
			InitColor: i % 7, // force cross-goroutine key overlap
			List:      randSet(rng, 30, 500),
			SetSize:   6,
			NumSets:   8,
		}
	}
	cache := NewFamilyCache()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range types {
				ty := types[(i+w)%len(types)]
				got := cache.Get(ty)
				if !reflect.DeepEqual(got.Sets, Family(ty)) {
					errs <- "cached family diverges from direct derivation"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if cache.Len() != len(types) {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), len(types))
	}
}

func contains(sorted []int, x int) bool {
	for _, c := range sorted {
		if c == x {
			return true
		}
	}
	return false
}
