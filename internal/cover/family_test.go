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

// FamilyConflictMask is the one-shot convenience form (fresh scratch per
// call); hot paths should reuse a ConflictKernel instead.
func FamilyConflictMask(f1, f2 *CachedFamily, tau, g int) uint64 {
	var k ConflictKernel
	return k.FamilyConflictMask(f1, f2, tau, g)
}

// TestCachedFamilyMatchesFamily derives a sequence of types through one
// cache, as a solve does: the lists grow and shrink (one to 5,000
// colors), and NumSets lies on both sides of 64. The derivation scratch
// that the cache reuses across them — the Fisher–Yates index, kept at the
// identity, and the drawn-position bitmaps and per-position masks, kept
// zeroed — must leave no trace: every family equals Family and, up to 64
// sets, its nonzero transpose, and the scratch is back in its resting
// state after each derivation.
func TestCachedFamilyMatchesFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewFamilyCache()
	lengths := []int{80, 2000, 5, 5000, 1, 300, 4999, 64, 65, 2, 1200, 7}
	for i := 0; i < 60; i++ {
		n := lengths[i%len(lengths)] - rng.Intn(2)
		ty := Type{
			InitColor: i,
			List:      randSet(rng, max(n, 1), 2*n+rng.Intn(3000)+1),
			SetSize:   1 + rng.Intn(64),
			NumSets:   1 + rng.Intn(72),
		}
		cf := c.Get(ty)
		want := Family(ty)
		if !reflect.DeepEqual(cf.Sets, want) {
			t.Fatalf("type %d: cached sets diverge from Family", i)
		}
		if !reflect.DeepEqual(cf.List, ty.List) {
			t.Fatalf("type %d: cached list diverges from the type's list", i)
		}
		checkDerivationScratch(t, i, &c.arena)
		if ty.NumSets > 64 {
			if cf.NzColors != nil || cf.NzMask != nil {
				t.Fatalf("type %d: %d sets must not carry the compact index", i, ty.NumSets)
			}
			continue
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

// checkDerivationScratch requires the arena's derivation scratch to be in
// its resting state: the whole index buffer the identity, and the masks
// and bitmaps zero.
func checkDerivationScratch(t *testing.T, i int, a *familyArena) {
	t.Helper()
	for p, x := range a.idx[:cap(a.idx)] {
		if x != p {
			t.Fatalf("type %d: index entry %d is %d after the derivation", i, p, x)
		}
	}
	for _, buf := range [][]uint64{a.mask, a.bitmap, a.union} {
		for _, w := range buf[:cap(buf)] {
			if w != 0 {
				t.Fatalf("type %d: derivation left a scratch word set", i)
			}
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
				return NewFamilyCache().Get(Type{
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
			NewFamilyCache().Get(Type{InitColor: 1, List: randSet(rng, 50, 400), SetSize: 8, NumSets: 12}),
			NewFamilyCache().Get(Type{InitColor: 2, List: randSet(rng, 200, 400), SetSize: 30, NumSets: 40}),
			NewFamilyCache().Get(Type{InitColor: 3, List: randSet(rng, 9, 400), SetSize: 4, NumSets: 64}),
			NewFamilyCache().Get(Type{InitColor: 4, List: randSet(rng, 30, 400), SetSize: 5, NumSets: 0}),
			NewFamilyCache().Get(Type{InitColor: 5, List: nil, SetSize: 5, NumSets: 8}),
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
	// The own colors lie below 40, so the own family gets the exact
	// filter: the neighbor's colors a multiple of 4096 away fall past its
	// end, and colors near 0 with g > 0 probe below its start.
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
			f1 := NewFamilyCache().Get(Type{InitColor: 1, List: own, SetSize: 8, NumSets: 16})
			f2 := NewFamilyCache().Get(Type{InitColor: 2, List: nbr, SetSize: 8, NumSets: 16})
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
	// An own family spread wider than its exact bitmap gets the hashed
	// filter. The neighbor's colors sit a multiple of the filter size away
	// from the own colors, so nearly every probe hits an aliased bit and
	// only the search can reject it.
	t.Run("aliased-hashed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(54))
		for trial := 0; trial < 200; trial++ {
			f1 := NewFamilyCache().Get(Type{InitColor: 1, List: randSet(rng, 24, 1<<16), SetSize: 8, NumSets: 16})
			f2 := NewFamilyCache().Get(Type{InitColor: 2, List: aliasedList(rng, f1), SetSize: 8, NumSets: 16})
			var k ConflictKernel
			checkKernelModes(t, &k, f1, f2, false)
		}
	})
	// Own families whose color range is one bit short of and exactly the
	// exact bitmap's capacity, 64·nextPow2(|NzColors|) bits: the first
	// gets the exact filter with both end bits set, the second the hashed
	// one. The neighbor's colors sit on, next to and just outside the own
	// colors.
	t.Run("boundary", func(t *testing.T) {
		rng := rand.New(rand.NewSource(55))
		for trial := 0; trial < 100; trial++ {
			nz := 2 + rng.Intn(70)
			capacity := 64 * filterWords(nz)
			for _, span := range []int{capacity - 1, capacity} {
				lo := rng.Intn(1000)
				own := []int{lo, lo + span}
				for len(own) < nz {
					if x := lo + 1 + rng.Intn(span-1); !slices.Contains(own, x) {
						own = append(own, x)
					}
				}
				sort.Ints(own)
				f1 := handFamily(rng, own, 1+rng.Intn(64))
				var nbr []int
				for _, x := range append(own, lo-3, lo-1, lo+span+1, lo+span+3) {
					if y := x + rng.Intn(7) - 3; y >= 0 && rng.Intn(3) > 0 {
						nbr = append(nbr, y)
					}
					if x >= 0 && rng.Intn(2) == 0 {
						nbr = append(nbr, x)
					}
				}
				sort.Ints(nbr)
				f2 := handFamily(rng, slices.Compact(nbr), 1+rng.Intn(64))
				var k ConflictKernel
				checkKernelModes(t, &k, f1, f2, span < capacity)
			}
		}
	})
}

// checkKernelModes checks the kernel against the scalar sweep for f1 and
// f2 at gaps 0, 1 and 3 and the τ edges of each, and that f1 loaded the
// wanted filter mode.
func checkKernelModes(t *testing.T, k *ConflictKernel, f1, f2 *CachedFamily, exact bool) {
	t.Helper()
	for _, g := range []int{0, 1, 3} {
		for _, tau := range tauEdges(f1, f2, g) {
			if got, want := k.FamilyConflictMask(f1, f2, tau, g), familyConflictMaskSlow(f1, f2, tau, g); got != want {
				t.Fatalf("own %v, nbr %v, g=%d τ=%d: mask %x, want %x", f1.NzColors, f2.NzColors, g, tau, got, want)
			}
		}
	}
	if k.filter.exact != exact {
		t.Fatalf("own range [%d, %d] over %d nonzero colors: exact filter %v, want %v",
			f1.NzColors[0], f1.NzColors[len(f1.NzColors)-1], len(f1.NzColors), k.filter.exact, exact)
	}
}

// filterWords is a Filter's hashed capacity in words for a list of n
// colors: nextPow2(n).
func filterWords(n int) int {
	w := 1
	for w < n {
		w *= 2
	}
	return w
}

// aliasedList returns a list that puts, for each of f's nonzero colors x,
// x itself or x plus a multiple of f's hashed filter size: every entry
// probes a set bit of that filter.
func aliasedList(rng *rand.Rand, f *CachedFamily) []int {
	size := 64 * filterWords(len(f.NzColors))
	var out []int
	for _, x := range f.NzColors {
		out = append(out, x+rng.Intn(3)*size)
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// handFamily builds a family over the given ascending colors with numSets
// random sets in which every color occurs at least once, so its nonzero
// colors are exactly colors.
func handFamily(rng *rand.Rand, colors []int, numSets int) *CachedFamily {
	f := &CachedFamily{List: colors, Sets: make([][]int, numSets), NzColors: colors, NzMask: make([]uint64, len(colors))}
	for j, x := range colors {
		m := uint64(1) << uint(j%numSets)
		for s := 0; s < numSets; s++ {
			if rng.Intn(3) == 0 {
				m |= 1 << uint(s)
			}
		}
		f.NzMask[j] = m
		for s := 0; s < numSets; s++ {
			if m&(1<<uint(s)) != 0 {
				f.Sets[s] = append(f.Sets[s], x)
			}
		}
	}
	return f
}

// FuzzFamilyConflictMask cross-checks the kernel against the scalar sweep
// over fuzzer-chosen families: list lengths, color spaces and offsets that
// put the own family in either filter mode, neighbors aliased onto the
// hashed filter, set shapes (beyond 64 sets the scalar fallback), gaps
// and τ. One kernel serves each pair in both directions.
func FuzzFamilyConflictMask(f *testing.F) {
	// The Theorem 1.4 batch shape: 86-color lists in a 97-color space.
	f.Add(int64(1), uint8(86), uint8(86), uint32(97), uint32(0), uint8(12), uint8(16), uint8(0), uint8(2), false)
	// Sparse lists in 2^15 at g = 1: an own range too wide for the exact
	// bitmap.
	f.Add(int64(2), uint8(200), uint8(200), uint32(1<<15), uint32(0), uint8(64), uint8(8), uint8(1), uint8(2), false)
	// Aliased neighbors of a hashed own family near 2^30.
	f.Add(int64(3), uint8(24), uint8(24), uint32(1<<16), uint32(1<<30), uint8(8), uint8(16), uint8(3), uint8(1), true)
	// 70 sets: no compact index, the scalar fallback.
	f.Add(int64(4), uint8(50), uint8(50), uint32(900), uint32(7), uint8(6), uint8(70), uint8(0), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, ownLen, nbrLen uint8, space, offset uint32, setSize, numSets, g, tau uint8, alias bool) {
		rng := rand.New(rand.NewSource(seed))
		sp := 1 + int(space%(1<<20))
		list := func(n uint8) []int {
			l := randSet(rng, min(int(n), sp), sp)
			for i := range l {
				l[i] += int(offset % (1 << 30))
			}
			return l
		}
		ty := Type{InitColor: 1, List: list(ownLen), SetSize: 1 + int(setSize%64), NumSets: int(numSets % 72)}
		f1 := NewFamilyCache().Get(ty)
		ty.InitColor, ty.List = 2, list(nbrLen)
		if alias {
			ty.List = aliasedList(rng, f1)
		}
		f2 := NewFamilyCache().Get(ty)
		gap, th := int(g%4), 1+int(tau%8)
		var k ConflictKernel
		for _, p := range [][2]*CachedFamily{{f1, f2}, {f1, f2}, {f2, f1}, {f1, f1}} {
			if got, want := k.FamilyConflictMask(p[0], p[1], th, gap), familyConflictMaskSlow(p[0], p[1], th, gap); got != want {
				t.Fatalf("own %v, nbr %v, g=%d τ=%d: mask %x, want %x", p[0].NzColors, p[1].NzColors, gap, th, got, want)
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

// TestConflictKernelFilterBounded pins the kernel's filter memory to the
// family, not the color values: colors near 2^30 cost at most 16 bytes
// of filter and 8 bytes of rank table per nonzero color (a color-indexed
// table would need 128 MB), whether the colors spread over 2^20 (the
// hashed side) or over 2^12 (the exact one). TestFilterSides checks which
// side each list takes.
func TestConflictKernelFilterBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, spread := range []int{1 << 20, 1 << 12} {
		list := randSet(rng, 600, spread)
		for i := range list {
			list[i] += 1<<30 - spread
		}
		for _, numSets := range []int{1, 16, 64} {
			own := NewFamilyCache().Get(Type{InitColor: 1, List: list, SetSize: 32, NumSets: numSets})
			nbr := NewFamilyCache().Get(Type{InitColor: 2, List: list, SetSize: 32, NumSets: 16})
			var k ConflictKernel
			k.FamilyConflictMask(own, nbr, 2, 0)
			nz := len(own.NzColors)
			if got, limit := 8*cap(k.filter.words), 16*nz; got > limit {
				t.Errorf("spread %d, %d sets: filter holds %d bytes for %d nonzero colors, limit %d", spread, numSets, got, nz, limit)
			}
			if got, limit := 4*cap(k.filter.rank), 8*nz; got > limit {
				t.Errorf("spread %d, %d sets: rank table holds %d bytes for %d nonzero colors, limit %d", spread, numSets, got, nz, limit)
			}
		}
	}
}

// TestFamilyConflictMaskFallbacks covers the paths that bypass the
// bit-sliced counters: families beyond 64 sets (no compact membership
// index) and τ beyond the counter range.
func TestFamilyConflictMaskFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	big := NewFamilyCache().Get(Type{InitColor: 1, List: randSet(rng, 50, 900), SetSize: 6, NumSets: 70})
	if big.NzMask != nil {
		t.Fatal("families beyond 64 sets must not carry the compact membership index")
	}
	small := NewFamilyCache().Get(Type{InitColor: 2, List: randSet(rng, 50, 900), SetSize: 6, NumSets: 8})
	for _, pair := range [][2]*CachedFamily{{big, small}, {small, big}, {big, big}} {
		if got, want := FamilyConflictMask(pair[0], pair[1], 2, 0), familyConflictMaskSlow(pair[0], pair[1], 2, 0); got != want {
			t.Fatalf("fallback mask %x want %x", got, want)
		}
	}
	if got, want := FamilyConflictMask(small, small, kernelMaxTau+1, 0), familyConflictMaskSlow(small, small, kernelMaxTau+1, 0); got != want {
		t.Fatalf("large-τ fallback mask %x want %x", got, want)
	}
	empty := NewFamilyCache().Get(Type{InitColor: 3, List: nil, SetSize: 4, NumSets: 8})
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
