package cover

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// CachedFamily is a candidate family in the representations the conflict
// kernels need: the sorted-slice sets that Family derives (the
// wire/reference form), the type's color list, and a compact transposed
// membership index for the batched family-vs-family kernel. All fields
// must be treated as immutable — entries are shared across every node (and
// every worker goroutine) of a run.
type CachedFamily struct {
	Sets [][]int
	// List is the (sorted) color list the family was derived from; Sets
	// elements are drawn from it. It aliases the Type's list, not a copy.
	List []int
	// NzColors/NzMask index set membership by color: NzMask[j] bit s is
	// set iff candidate set s contains NzColors[j], and only colors that
	// occur in at least one set appear (ascending). Candidate sets cover
	// far fewer colors than the list holds, so the batched kernel sweeps
	// these instead of the full lists. Nil when the family has more than
	// 64 sets (the kernel then falls back to the scalar sweep).
	NzColors []int
	NzMask   []uint64
}

// deriveFamily fills f with the family of t. The set contents replay
// Family(t) exactly — same seed, same partial Fisher–Yates draw order — so
// the cached form is bit-identical to the reference derivation; the
// compact membership index is built from the drawn positions as a side
// product. Where Family refills the whole index permutation for every
// set, this undoes each set's SetSize swaps instead, which restores the
// identity permutation the next set's draws (and the next derivation)
// start from. Where Family sorts each set, this marks the drawn positions
// in a bitmap and reads them back in position order: the list ascends, so
// position order is color order. Each set's bitmap is ORed into a union,
// and the index reads its rows off the union's set bits, clearing the
// per-position masks as it goes, so a derivation touches only the drawn
// positions and |L|/64 words besides. Backing storage is carved from the
// arena (the caller must hold the cache lock). f.List aliases t.List.
func deriveFamily(t Type, f *CachedFamily, a *familyArena) {
	setSize := t.SetSize
	if setSize > len(t.List) {
		setSize = len(t.List)
	}
	f.List = t.List
	if setSize == 0 || len(t.List) == 0 {
		f.Sets = nil
		return
	}
	useMask := t.NumSets <= 64
	words := (len(t.List) + 63) / 64
	var colMask, union []uint64
	if useMask {
		colMask = a.zeroed(&a.mask, len(t.List))
		union = a.zeroed(&a.union, words)
	}
	rng := splitmix{state: t.seed()}
	f.Sets = a.setHeaders(t.NumSets)
	idx := a.identity(len(t.List))
	drawn := a.zeroed(&a.bitmap, words)
	for s := range f.Sets {
		// Partial Fisher–Yates: the first SetSize entries become a uniform
		// subset (identical draws to Family). set[i] holds swap i's partner
		// until the undo below.
		set := a.ints(setSize)
		for i := range set {
			j := i + int(rng.next()%uint64(len(idx)-i))
			idx[i], idx[j] = idx[j], idx[i]
			set[i] = j
		}
		// Undo the swaps last to first. Before swap i is undone the index
		// is as swap i left it, and no later swap touches position i, so
		// idx[i] is the drawn position.
		lo, hi := len(drawn), 0
		for i := setSize - 1; i >= 0; i-- {
			p := idx[i]
			drawn[p>>6] |= 1 << uint(p&63)
			lo, hi = min(lo, p>>6), max(hi, p>>6)
			if useMask {
				colMask[p] |= 1 << uint(s)
			}
			j := set[i]
			idx[i], idx[j] = idx[j], idx[i]
		}
		// Read the drawn positions back in ascending order, clearing the
		// bitmap for the next set.
		k := 0
		for wi := lo; wi <= hi; wi++ {
			wd := drawn[wi]
			if useMask {
				union[wi] |= wd
			}
			for ; wd != 0; wd &= wd - 1 {
				set[k] = t.List[wi<<6|bits.TrailingZeros64(wd)]
				k++
			}
			drawn[wi] = 0
		}
		f.Sets[s] = set
	}
	if useMask {
		nnz := 0
		for _, u := range union {
			nnz += bits.OnesCount64(u)
		}
		f.NzColors = a.ints(nnz)
		f.NzMask = a.words(nnz)
		k := 0
		for wi, u := range union {
			for ; u != 0; u &= u - 1 {
				p := wi<<6 | bits.TrailingZeros64(u)
				f.NzColors[k] = t.List[p]
				f.NzMask[k] = colMask[p]
				colMask[p] = 0
				k++
			}
			union[wi] = 0
		}
	}
}

// familyArena is bump storage for cached family derivations: slices are
// carved off append-only chunks, so a whole run's families live in a
// handful of large allocations instead of five small ones per entry.
// Mutation requires external locking (FamilyCache.mu).
type familyArena struct {
	ints64  []int
	words64 []uint64
	hdrs    [][]int
	fams    []CachedFamily
	// Reusable derivation scratch, not carved: the Fisher–Yates index is
	// kept at the identity, and the others are kept zeroed.
	idx    []int
	mask   []uint64 // per-position set membership
	bitmap []uint64 // one set's drawn positions
	union  []uint64 // every set's drawn positions
	bytes  int64    // total reserved chunk bytes, for observability
}

const (
	arenaIntChunk  = 8192
	arenaWordChunk = 4096
	arenaHdrChunk  = 1024
	arenaFamChunk  = 256
)

// ints returns a zeroed int block of length n.
func (a *familyArena) ints(n int) []int {
	if len(a.ints64)+n > cap(a.ints64) {
		c := arenaIntChunk
		if n > c {
			c = n
		}
		a.ints64 = make([]int, 0, c)
		a.bytes += int64(c) * 8
	}
	s := a.ints64[len(a.ints64) : len(a.ints64)+n : len(a.ints64)+n]
	a.ints64 = a.ints64[:len(a.ints64)+n]
	return s
}

// words returns a zeroed uint64 block of length n.
func (a *familyArena) words(n int) []uint64 {
	if len(a.words64)+n > cap(a.words64) {
		c := arenaWordChunk
		if n > c {
			c = n
		}
		a.words64 = make([]uint64, 0, c)
		a.bytes += int64(c) * 8
	}
	s := a.words64[len(a.words64) : len(a.words64)+n : len(a.words64)+n]
	a.words64 = a.words64[:len(a.words64)+n]
	return s
}

// setHeaders returns a non-nil slice-header block of length n.
func (a *familyArena) setHeaders(n int) [][]int {
	if len(a.hdrs)+n > cap(a.hdrs) {
		c := arenaHdrChunk
		if n > c {
			c = n
		}
		a.hdrs = make([][]int, 0, c)
		a.bytes += int64(c) * 24
	}
	s := a.hdrs[len(a.hdrs) : len(a.hdrs)+n : len(a.hdrs)+n]
	a.hdrs = a.hdrs[:len(a.hdrs)+n]
	return s
}

// family returns a pointer into the entry slab; slab chunks are never
// reallocated once carved, so the pointer stays valid for the arena's
// lifetime.
func (a *familyArena) family() *CachedFamily {
	if len(a.fams) == cap(a.fams) {
		a.fams = make([]CachedFamily, 0, arenaFamChunk)
		a.bytes += int64(arenaFamChunk) * 72
	}
	a.fams = a.fams[:len(a.fams)+1]
	return &a.fams[len(a.fams)-1]
}

// identity returns the reusable length-n index buffer, which holds the
// identity permutation. Users must leave it so.
func (a *familyArena) identity(n int) []int {
	if cap(a.idx) < n {
		a.idx = make([]int, n)
		for i := range a.idx {
			a.idx[i] = i
		}
		a.bytes += int64(n) * 8
	}
	return a.idx[:n]
}

// zeroed returns the reusable buffer *buf cut to n zeroed words, growing
// it when it is shorter (derivation scratch only — never stored on
// entries, so list-length buffers don't make the arena grow with
// Σ|list|). Users must leave it zeroed.
func (a *familyArena) zeroed(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
		a.bytes += int64(n) * 8
	}
	return (*buf)[:n]
}

// FamilyCache memoizes Family derivations by Type. The paper's Lemma 3.6
// encoding has every node re-derive each neighbor's family from its type
// once per neighbor per round; since the family is a pure deterministic
// function of the type, a run needs each distinct type derived exactly
// once. Lookups are an allocation-free hash probe under a read lock;
// misses derive under the write lock into the shared bump arena, so each
// distinct type costs exactly one derivation regardless of worker count or
// scheduling. The cache is safe for concurrent use from the engine's
// parallel Inbox/Outbox callbacks.
type FamilyCache struct {
	mu      sync.RWMutex
	table   []int32 // open-addressed: 1-based indices into entries, 0 = empty
	entries []cacheEntry
	arena   familyArena
	hits    atomic.Int64
	misses  atomic.Int64
}

type cacheEntry struct {
	hash uint64
	t    Type // List aliases the inserting caller's list (see Get)
	fam  *CachedFamily
}

// NewFamilyCache returns an empty cache.
func NewFamilyCache() *FamilyCache { return &FamilyCache{} }

// Get returns the family of t, deriving and inserting it on first use.
// The cache aliases t.List (it is not copied): the caller must not mutate
// the list after the call. The solve algorithms satisfy this by
// construction — lists live in per-solve arenas or caller-owned inputs and
// are immutable once announced.
func (c *FamilyCache) Get(t Type) *CachedFamily {
	h := typeHash(t)
	c.mu.RLock()
	fam := c.lookup(h, t)
	c.mu.RUnlock()
	if fam != nil {
		c.hits.Add(1)
		return fam
	}
	c.mu.Lock()
	if fam = c.lookup(h, t); fam != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		return fam
	}
	fam = c.insert(h, t)
	c.mu.Unlock()
	c.misses.Add(1)
	return fam
}

// lookup probes the table for an equal type; the caller holds a lock.
func (c *FamilyCache) lookup(h uint64, t Type) *CachedFamily {
	if len(c.table) == 0 {
		return nil
	}
	mask := uint64(len(c.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := c.table[i]
		if slot == 0 {
			return nil
		}
		e := &c.entries[slot-1]
		if e.hash == h && typesEqual(e.t, t) {
			return e.fam
		}
	}
}

// insert derives t under the write lock and places it in the table.
func (c *FamilyCache) insert(h uint64, t Type) *CachedFamily {
	if 4*(len(c.entries)+1) > 3*len(c.table) {
		c.grow()
	}
	fam := c.arena.family()
	deriveFamily(t, fam, &c.arena)
	c.entries = append(c.entries, cacheEntry{hash: h, t: t, fam: fam})
	mask := uint64(len(c.table) - 1)
	i := h & mask
	for c.table[i] != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = int32(len(c.entries))
	return fam
}

// grow doubles the probe table and rehashes every entry index.
func (c *FamilyCache) grow() {
	n := 2 * len(c.table)
	if n < 64 {
		n = 64
	}
	c.table = make([]int32, n)
	mask := uint64(n - 1)
	for idx := range c.entries {
		i := c.entries[idx].hash & mask
		for c.table[i] != 0 {
			i = (i + 1) & mask
		}
		c.table[i] = int32(idx + 1)
	}
}

// Stats returns the lookup counters accumulated so far. Hits + misses
// equals the number of Get calls; misses equals the number of distinct
// types derived (derivation happens exactly once per type under the write
// lock, so the split is deterministic for a fixed request multiset).
func (c *FamilyCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of distinct types derived so far.
func (c *FamilyCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// ArenaBytes returns the bytes reserved by the cache's backing bump arena
// (an observability figure: the resident cost of all cached families).
func (c *FamilyCache) ArenaBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.arena.bytes
}

// typesEqual reports field-wise equality of two types. Lists of equal
// length that start at the same address are the same memory, hence equal:
// in-process receivers hold the sender's own list slice, so a cache hit
// costs O(1) instead of a full list compare. Decoded or restored lists
// are separate copies and take the element-wise compare.
func typesEqual(a, b Type) bool {
	if a.InitColor != b.InitColor || a.SetSize != b.SetSize ||
		a.NumSets != b.NumSets || len(a.List) != len(b.List) {
		return false
	}
	if len(a.List) == 0 || &a.List[0] == &b.List[0] {
		return true
	}
	for i, x := range a.List {
		if x != b.List[i] {
			return false
		}
	}
	return true
}

// typeHash mixes the type fields into a 64-bit probe hash without
// allocating (the former string-key encoding was the top allocation site
// of a whole solve). Long lists are sampled — scalar fields, length, a
// 16-position stride and the last element — because every receiver hashes
// every neighbor's type once and full-list hashing dominated solve CPU at
// high Δ. Collisions are resolved by the full typesEqual comparison, so
// hash quality only affects probe length, never correctness.
func typeHash(t Type) uint64 {
	h := mix64(uint64(t.InitColor)<<32 ^ uint64(t.SetSize)<<16 ^ uint64(t.NumSets))
	n := len(t.List)
	h = mix64(h ^ uint64(n))
	if n <= 16 {
		for _, x := range t.List {
			h = h*0x9e3779b97f4a7c15 + uint64(x)
		}
	} else {
		stride := (n + 15) / 16
		for i := 0; i < n; i += stride {
			h = h*0x9e3779b97f4a7c15 + uint64(t.List[i])
		}
		h = h*0x9e3779b97f4a7c15 + uint64(t.List[n-1])
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
