// Package algkit is the shared algorithm toolkit: the fast-path building
// blocks the coloring algorithm families (internal/oldc, internal/fk24,
// internal/maus21) have in common.
//
// The pieces were originally grown inside internal/oldc (PRs 3 and 6) and
// are lifted here so new families consume one implementation instead of
// forking copies:
//
//   - OutCSR: a flat CSR snapshot of an orientation's out-adjacency, with a
//     two-pointer inbox merge that resolves each received message to its
//     out-neighbor position without per-message adjacency lookups.
//   - Scratch: the pooled per-callback scratch (conflict-kernel counter
//     planes plus per-candidate / per-color count buffers) that lets
//     concurrent Inbox/Outbox callbacks run allocation-free.
//   - AccumulateConflicts / ConflictArgmin: the batched bitset
//     candidate-set conflict counting on top of cover.ConflictKernel.
//   - CountWindow / CountMerge: per-color occurrence counting against
//     sorted color lists (windowed for gap-g instances, two-pointer merged
//     for gap 0).
//
// Everything here is deterministic and safe for concurrent use from
// different engine worker goroutines, which is what keeps algorithm output
// bit-identical across worker counts.
package algkit

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/cover"
	"repro/internal/graph"
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
// batched conflict kernel's counter planes and the per-candidate /
// per-color count buffers. The engine runs callbacks for different nodes
// concurrently, so scratch is pooled rather than stored on the algorithm;
// a worker grabs one, uses it for a single node, and returns it.
type Scratch struct {
	// Kernel is the batched bitset conflict kernel's reusable counter planes.
	Kernel cover.ConflictKernel
	// D holds per-candidate-set conflicting-neighbor counts.
	D []int32
	// Cnt holds per-list-position occurrence counts.
	Cnt []int32
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch to the shared pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

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

// CountMerge adds one to cnt[j] for every position j of cv whose color
// also occurs in cu (both sorted ascending): one neighbor candidate set's
// g = 0 contribution to every own color in a single two-pointer pass.
func CountMerge(cnt []int32, cv, cu []int) {
	i, j := 0, 0
	for i < len(cv) && j < len(cu) {
		switch {
		case cv[i] < cu[j]:
			i++
		case cv[i] > cu[j]:
			j++
		default:
			cnt[i]++
			i++
			j++
		}
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
