// Package algkit is the shared algorithm toolkit: the fast-path building
// blocks the coloring algorithm families internal/oldc and internal/fk24
// have in common.
//
// The pieces were originally grown inside internal/oldc (PRs 3 and 6) and
// are lifted here so new families consume one implementation instead of
// forking copies:
//
//   - OutCSR: a flat CSR snapshot of an orientation's out-adjacency, with a
//     two-pointer inbox merge that resolves each received message to its
//     out-neighbor position without per-message adjacency lookups.
//   - Scratch: the pooled per-callback scratch (conflict-kernel counter
//     planes, a cover.Filter, and per-candidate / per-color count buffers)
//     that lets concurrent Inbox/Outbox callbacks run allocation-free.
//   - AccumulateConflicts / ConflictArgmin: the batched bitset
//     candidate-set conflict counting on top of cover.ConflictKernel.
//   - CountWindow / Scratch.CountBelow: per-color occurrence counting
//     against a sorted color list (windowed for one color at gap g, probed
//     through the list's cover.Filter for a whole set at gap 0).
//   - WriteList / ReadList: the color-list field of the type messages
//     both oldc and fk24 send, and its hardened decoder.
//
// Everything here is deterministic and safe for concurrent use from
// different engine worker goroutines, which is what keeps algorithm output
// bit-identical across worker counts.
package algkit

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/bitio"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

// OutCSR is a CSR snapshot of an orientation's out-adjacency (mirroring
// internal/graph's flat layout): positions Off[v]..Off[v+1] hold node v's
// sorted out-neighbors, and all per-neighbor algorithm state is indexed by
// that position. Inbox deliveries are sorted by sender id, so a two-pointer
// merge against Ids resolves each message's position without the
// per-message HasArc binary search a map-based representation needs.
type OutCSR struct {
	// Off holds the per-node slice boundaries: node v owns Ids[Off[v]:Off[v+1]].
	Off []int32
	// Ids holds the concatenated sorted out-neighbor ids.
	Ids []int32
}

// NewOutCSR builds the CSR snapshot of o's out-adjacency.
func NewOutCSR(o *graph.Oriented) OutCSR {
	n := o.N()
	off := make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		total += len(o.Out(v))
		off[v+1] = int32(total)
	}
	ids := make([]int32, 0, total)
	for v := 0; v < n; v++ {
		ids = append(ids, o.Out(v)...)
	}
	return OutCSR{Off: off, Ids: ids}
}

// Arcs returns the total number of arcs (the length of every flat array).
func (c OutCSR) Arcs() int { return len(c.Ids) }

// MergePos advances the position cursor to the sender's slot, exploiting
// that both the inbox and the out-neighbor ids are sorted ascending. It
// returns the matching position, the advanced cursor, and whether the
// sender is an out-neighbor of the node.
func (c OutCSR) MergePos(p, end int32, from int) (int32, int32, bool) {
	for p < end && c.Ids[p] < int32(from) {
		p++
	}
	return p, p, p < end && c.Ids[p] == int32(from)
}

// Scratch is the round-scoped scratch one Inbox/Outbox callback needs: the
// batched conflict kernel's counter planes, a Filter over the node's own
// candidate set, and the per-candidate / per-color count buffers. The
// engine runs callbacks for different nodes concurrently, so scratch is
// pooled rather than stored on the algorithm; a worker grabs one, uses it
// for a single node, and returns it.
type Scratch struct {
	// Kernel is the batched bitset conflict kernel's reusable counter planes.
	Kernel cover.ConflictKernel
	// Filter describes the list CountBelow counts into.
	Filter cover.Filter
	// D holds per-candidate-set conflicting-neighbor counts.
	D []int32
	// Cnt holds per-list-position occurrence counts.
	Cnt []int32
	// Pos holds the common positions CountBelow collects.
	Pos []int32
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch to the shared pool. The kernel's family and
// the filter's list are dropped first, so pooled scratch keeps neither
// alive.
func PutScratch(s *Scratch) {
	s.Kernel.Unload()
	s.Filter.Unload()
	scratchPool.Put(s)
}

// Grow32 returns s resized to n zeroed entries, reusing capacity.
func Grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// CountWindow adds one to cnt[j] for every position j of the sorted list
// cv with |cv[j] − y| ≤ g: the per-color μ_g contribution of a single
// neighbor color, accumulated for all of cv at once.
func CountWindow(cnt []int32, cv []int, y, g int) {
	if g == 0 {
		if j := sort.SearchInts(cv, y); j < len(cv) && cv[j] == y {
			cnt[j]++
		}
		return
	}
	for j := sort.SearchInts(cv, y-g); j < len(cv) && cv[j] <= y+g; j++ {
		cnt[j]++
	}
}

// CountBelow adds one to cnt[j] for every position j of the list loaded
// into s.Filter whose color also occurs in cu (sorted ascending), provided
// the two share fewer than tau colors: for sorted sets that is exactly
// !cover.TauGConflict(list, cu, tau, 0), and tau = math.MaxInt counts
// every common color. The probe stops at the tau-th common color.
func (s *Scratch) CountBelow(cnt []int32, cu []int, tau int) {
	s.Pos = s.Filter.AppendCommon(s.Pos[:0], cu, tau)
	if len(s.Pos) >= tau {
		return
	}
	for _, j := range s.Pos {
		cnt[j]++
	}
}

// AccumulateConflicts adds one to d[i] for every own candidate set i that
// τ&g-conflicts with some set of the neighbor family fam. Families beyond
// 64 sets exceed the mask width and take the scalar sweep.
func AccumulateConflicts(d []int32, k *cover.ConflictKernel, own, fam *cover.CachedFamily, tau, gap int) {
	if len(d) <= 64 {
		mask := k.FamilyConflictMask(own, fam, tau, gap)
		for ; mask != 0; mask &= mask - 1 {
			d[bits.TrailingZeros64(mask)]++
		}
		return
	}
	for i, c := range own.Sets {
		for _, cu := range fam.Sets {
			if cover.TauGConflict(c, cu, tau, gap) {
				d[i]++
				break
			}
		}
	}
}

// ConflictArgmin returns the first index of the minimum count (the rule
// the original scalar loop's strict < comparison implemented).
func ConflictArgmin(d []int32) int {
	best := 0
	for i := 1; i < len(d); i++ {
		if d[i] < d[best] {
			best = i
		}
	}
	return best
}

// NextPow2 returns the smallest power of two ≥ x (and 1 for x ≤ 1).
func NextPow2(x int) int {
	p := 1
	for p < x {
		p *= 2
	}
	return p
}

// MaxOutDegreePow2 returns β̂ = max_v β̂_v (out-degrees rounded up to
// powers of two).
func MaxOutDegreePow2(o *graph.Oriented) int {
	b := 1
	for v := 0; v < o.N(); v++ {
		p := NextPow2(o.OutDegree(v))
		if p > b {
			b = p
		}
	}
	return b
}

// WriteList writes a sorted color list over the space [0, spaceSize) as
// the cheaper of a characteristic vector (|C| bits) or an explicit list (a
// varint length, then bitio.WidthFor(|C|) bits per color), behind a one-bit
// flag: the min{|C|, Λ·log|C|} term of Theorem 1.1's message bound.
func WriteList(w *bitio.Writer, list []int, spaceSize int) {
	width := bitio.WidthFor(spaceSize)
	if spaceSize <= 1+len(list)*width {
		w.WriteBit(0)
		w.WriteBitset(list, spaceSize)
		return
	}
	w.WriteBit(1)
	w.WriteVarint(uint64(len(list)))
	for _, c := range list {
		w.WriteUint(uint64(c), width)
	}
}

// ReadList parses WriteList's encoding. The list it returns is non-empty,
// strictly ascending and inside the space; anything else, or too few
// bits, is a *sim.DecodeError.
func ReadList(r *bitio.Reader, spaceSize int) ([]int, error) {
	fail := func(reason string) ([]int, error) {
		return nil, &sim.DecodeError{Kind: "algkit list", Reason: reason, Err: r.Err()}
	}
	var list []int
	if r.ReadBit() == 0 {
		list = r.ReadBitset(spaceSize)
		if r.Err() != nil {
			return fail("truncated bitset list")
		}
	} else {
		n := r.ReadVarint()
		if r.Err() != nil {
			return fail("truncated list length")
		}
		// A strictly-ascending in-range list has at most |C| entries, and
		// its encoding needs n·width more bits; checking both before the
		// loop bounds work and allocation on hostile input. n is compared
		// unconverted: a varint can exceed the int range.
		width := bitio.WidthFor(spaceSize)
		if n > uint64(max(spaceSize, 0)) || int(n)*width > r.Remaining() {
			return fail("list length exceeds the color space or the payload")
		}
		list = make([]int, 0, n)
		for i := 0; i < int(n); i++ {
			c := int(r.ReadUint(width))
			if c >= spaceSize {
				return fail("list color outside the space")
			}
			if i > 0 && c <= list[i-1] {
				return fail("list not strictly ascending")
			}
			list = append(list, c)
		}
		if r.Err() != nil {
			return fail("truncated list")
		}
	}
	if len(list) == 0 {
		return fail("empty color list")
	}
	return list, nil
}
