package cover

import (
	"math/bits"
	"slices"
)

// The batched family-vs-family kernel answers, in one walk over the
// neighbor's color list, the question the P1 stage asks per neighbor:
// which of my candidate sets τ&g-conflict with at least one of yours? The
// scalar path walks set × set × color; the batched path instead finds the
// common (within-g) colors of the two families and maintains one
// saturating counter per (own set, neighbor set) pair in bit-sliced form —
// every neighbor set occupies one bit lane, every own set one counter row
// — so a single common color updates up to 64 × 64 conflict weights with a
// handful of word ops.

// kernelMaxTau bounds the τ the bit-sliced counters can represent (8
// planes saturate at 255 ≥ τ); larger values fall back to the scalar
// sweep. Practical profiles keep τ far below this.
const kernelMaxTau = 255

// ConflictKernel is reusable scratch for FamilyConflictMask. The zero
// value is ready to use; a kernel must not be used concurrently. Hot paths
// should hold one per worker (e.g. in a sync.Pool) — the counter planes
// are a few KB, and reusing them avoids re-zeroing the full array on every
// call (only lanes touched by a call are cleared on its way out).
//
// The kernel also keeps a Filter over the nonzero colors of the own family
// (f1) it last loaded: every caller asks about one own family against each
// of a node's neighbors in turn, so the filter is built once per node.
// Families are immutable, so a loaded family is recognized by its pointer;
// Unload drops the reference once the node is done.
type ConflictKernel struct {
	planes [64][8]uint64 // planes[i][p]: bit s = bit p of weight(own i, nbr s)
	sat    [64]uint64    // bit s set once weight(own i, nbr s) overflowed
	used   uint64        // own-set rows with any live counter bits

	own    *CachedFamily // family the filter describes (nil = none)
	filter Filter        // over own.NzColors
	hits   []probeHit    // one call's filter hits
}

// probeHit is a filter hit of FamilyConflictMask: the probed color x and
// the row j2 of the neighbor's nonzero color it came from.
type probeHit struct{ x, j2 int }

// FamilyConflictMask returns a bitmask over f1's candidate sets: bit i is
// set iff ConflictWeight(f1.Sets[i], f2.Sets[s], g) ≥ tau for at least one
// set s of f2 — exactly the per-neighbor predicate of the P1 choice. Only
// the first 64 sets of f1 are representable; when either family lacks its
// compact membership index or τ exceeds the counter range, the scalar
// reference sweep computes the same mask.
//
// The kernel visits every pair of nonzero colors (x of f1, y of f2) with
// |x − y| ≤ g. It walks f2's nonzero colors and records each x ∈
// [y−g, y+g] whose bit is set in the Filter of f1's nonzero colors; then
// it finds each hit's row of f1. On the filter's exact side the row is the
// hit's rank: a prefix count plus one popcount. On its hashed side a
// binary search finds it, and aliased bits fail the search. Either way
// the pairs are exactly those of a merge of the two lists. Each pair adds
// one to every (own set, neighbor set) weight it covers; the threshold
// reads only the final counts, so the visiting order does not matter.
func (k *ConflictKernel) FamilyConflictMask(f1, f2 *CachedFamily, tau, g int) uint64 {
	if f1.NzMask == nil || f2.NzMask == nil || tau < 1 || tau > kernelMaxTau {
		return familyConflictMaskSlow(f1, f2, tau, g)
	}
	if k.own != f1 {
		k.filter.Load(f1.NzColors)
		k.own = f1
	}
	p := bits.Len(uint(tau)) // counters hold [0, 2^p−1] with 2^p−1 ≥ τ
	// Only the colors that occur in at least one candidate set (the
	// compacted nonzero rows) can change a counter, and candidate sets
	// cover a small fraction of the lists.
	fl, ys := &k.filter, f2.NzColors
	m1, m2 := f1.NzMask, f2.NzMask
	n := len(ys) * (2*g + 1)
	k.hits = slices.Grow(k.hits[:0], n)[:n]
	for _, ht := range k.hits[:probe(fl.words, fl.lo, fl.fmask, ys, g, k.hits)] {
		if j1, ok := fl.confirm(ht.x); ok {
			k.count(m1[j1], m2[ht.j2], p)
		}
	}
	// Threshold: lane weight ≥ τ iff it overflowed or the bit-sliced
	// compare says so; clear the touched rows for the next call.
	var out uint64
	for mm := k.used; mm != 0; mm &= mm - 1 {
		i := bits.TrailingZeros64(mm)
		pl := &k.planes[i]
		ge := k.sat[i]
		eq := ^uint64(0)
		for q := p - 1; q >= 0; q-- {
			if tau&(1<<uint(q)) != 0 {
				eq &= pl[q]
			} else {
				ge |= eq & pl[q]
			}
			pl[q] = 0
		}
		if ge|eq != 0 { // eq survivors equal τ exactly
			out |= 1 << uint(i)
		}
		k.sat[i] = 0
	}
	k.used = 0
	return out
}

// probe records in hits every x ∈ [y−g, y+g] for y = ys[j2] whose filter
// bit (x−lo)&fmask is set, with its j2, and returns how many it recorded;
// hits must hold len(ys)·(2g+1) entries. Kept apart from the counting,
// the kernel's inner loop makes no calls, so its variables stay in
// registers. At g = 0 a loop without the window loop probes y alone:
// sending g = 0 through the window loop made an oldc-d128 solve use about
// 13% more CPU (EXPERIMENTS.md, "Probe, don't merge").
func probe(words []uint64, lo int, fmask uint, ys []int, g int, hits []probeHit) int {
	last := uint(len(words) - 1) // a zero word: exact probes past the range
	h := 0
	if g == 0 {
		for j2, y := range ys {
			b := uint(y-lo) & fmask
			if words[min(b>>6, last)]&(1<<(b&63)) != 0 {
				hits[h] = probeHit{x: y, j2: j2}
				h++
			}
		}
		return h
	}
	for j2, y := range ys {
		for x := y - g; x <= y+g; x++ {
			b := uint(x-lo) & fmask // exact: below lo wraps past the range
			if words[min(b>>6, last)]&(1<<(b&63)) != 0 {
				hits[h] = probeHit{x: x, j2: j2}
				h++
			}
		}
	}
	return h
}

// count adds one to weight(own i, nbr s) for every i in vm and s in um:
// a bit-sliced saturating +1 on the lanes um of each row in vm.
func (k *ConflictKernel) count(vm, um uint64, p int) {
	k.used |= vm
	for ; vm != 0; vm &= vm - 1 {
		i := bits.TrailingZeros64(vm)
		pl := &k.planes[i]
		carry := um
		for q := 0; q < p; q++ {
			nc := pl[q] & carry
			pl[q] ^= carry
			carry = nc
			if carry == 0 {
				break
			}
		}
		k.sat[i] |= carry
	}
}

// Unload drops the kernel's reference to the family it last loaded (the
// filter storage is kept for reuse), so a pooled kernel keeps no family
// alive.
func (k *ConflictKernel) Unload() {
	k.own = nil
	k.filter.Unload()
}

// familyConflictMaskSlow is the scalar reference: the per-set sweep the
// algorithms ran before batching, restricted to the 64 representable rows.
func familyConflictMaskSlow(f1, f2 *CachedFamily, tau, g int) uint64 {
	var out uint64
	for i, c := range f1.Sets {
		if i >= 64 {
			break
		}
		for _, c2 := range f2.Sets {
			if TauGConflict(c, c2, tau, g) {
				out |= 1 << uint(i)
				break
			}
		}
	}
	return out
}
