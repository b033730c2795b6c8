// Package baseline implements the competitor algorithms the paper's
// contributions are measured against in the experiments:
//
//   - SlowFold: the classic O(Δ² + log* n) route [Lin87, GPS88] — Linial to
//     O(Δ²) colors, then one color class folded per round;
//   - LinearDeltaPlusOne: the O(Δ + log* n) locally-iterative algorithm
//     [SV93, BEK14, BEG18], via the row-shift reduction;
//   - Luby: the classic randomized (Δ+1)-coloring (O(log n) rounds w.h.p.),
//     the randomized reference point;
//   - GK21Rounds: the analytic O(log²Δ·log n) round formula of
//     Ghaffari–Kuhn, used as a cost-model curve (DESIGN.md substitution 4).
package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/sim"
)

// SlowFold computes a (Δ+1)-coloring in O(Δ²) + O(log* n) rounds.
func SlowFold(eng *sim.Engine, g *graph.Graph) (coloring.Assignment, sim.Stats, error) {
	var total sim.Stats
	c1, m1, s1, err := linial.Proper(eng, graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	total = total.Add(s1)
	if err != nil {
		return nil, total, err
	}
	c2, s2, err := linial.FoldColors(eng, g, c1, m1, g.MaxDegree()+1)
	total = total.Add(s2)
	if err != nil {
		return nil, total, err
	}
	return c2, total, nil
}

// LinearDeltaPlusOne computes a (Δ+1)-coloring in O(Δ + log* n) rounds.
func LinearDeltaPlusOne(eng *sim.Engine, g *graph.Graph) (coloring.Assignment, sim.Stats, error) {
	phi, stats, err := linial.DeltaPlusOne(eng, g, linial.IDs(g.N()), g.N())
	return phi, stats, err
}

// Luby computes a (Δ+1)-coloring with the classic randomized trial
// algorithm: every uncolored node proposes a uniformly random color from
// its remaining palette; a proposal is kept if no neighbor proposed or
// holds the same color. Terminates in O(log n) rounds w.h.p.
//
// The coloring is a pure function of (g, seed): identical for every
// worker count.
func Luby(r sim.Runner, g *graph.Graph, seed int64) (coloring.Assignment, sim.Stats, error) {
	alg := newLubyAlg(g, seed)
	stats, err := r.Run(alg, 64*(intLog2(g.N())+2)+64)
	if err != nil {
		return nil, stats, err
	}
	phi := coloring.Assignment(alg.color)
	if err := coloring.CheckProper(g, phi, g.MaxDegree()+1); err != nil {
		return nil, stats, err
	}
	return phi, stats, nil
}

type lubyAlg struct {
	g        *graph.Graph
	rng      []*rand.Rand
	color    []int // final color or -1
	proposal []int
	width    int
	// msgs[c<<1 | decided] is the message carrying color c: one word of
	// 1 + width bits, the decided flag, then c. The 2(Δ+1) messages are
	// boxed once, so a broadcast allocates nothing.
	msgs    []sim.Payload
	started bool
}

func newLubyAlg(g *graph.Graph, seed int64) *lubyAlg {
	n := g.N()
	a := &lubyAlg{g: g, rng: make([]*rand.Rand, n), color: make([]int, n), proposal: make([]int, n)}
	for v := 0; v < n; v++ {
		a.rng[v] = rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
		a.color[v] = -1
	}
	a.width = bitio.WidthFor(g.MaxDegree() + 2)
	a.msgs = make([]sim.Payload, 2*(g.MaxDegree()+1))
	for i := range a.msgs {
		a.msgs[i] = sim.UintPayload{Value: uint64(i&1)<<uint(a.width) | uint64(i>>1), Width: 1 + a.width}
	}
	return a
}

func (a *lubyAlg) Outbox(v int, out *sim.Outbox) {
	if a.color[v] >= 0 {
		out.IgnoreInbox()
		out.Broadcast(a.msgs[a.color[v]<<1|1])
		return
	}
	// Propose a random palette color not yet claimed by a decided neighbor.
	// The draw picks the k-th free color, ascending.
	sc := scratchPool.Get().(*scratch)
	k := a.rng[v].Intn(a.freePalette(v, sc))
	for c, t := range sc.taken {
		if !t {
			if k == 0 {
				a.proposal[v] = c
				break
			}
			k--
		}
	}
	scratchPool.Put(sc)
	out.Broadcast(a.msgs[a.proposal[v]<<1])
}

// scratch is the buffers of one callback. Callbacks for different nodes
// run concurrently, so scratch is pooled, never stored on the algorithm.
type scratch struct {
	taken  []bool // Luby: the palette colors a decided neighbor holds
	counts []int  // ExactArbdefective: decided neighbors per class
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// freePalette marks in sc.taken the colors of [0, Δ] that a decided
// neighbor of v holds and returns how many are left free.
func (a *lubyAlg) freePalette(v int, sc *scratch) int {
	delta := a.g.MaxDegree()
	sc.taken = slices.Grow(sc.taken[:0], delta+1)[:delta+1]
	clear(sc.taken)
	free := delta + 1
	for _, u := range a.g.Neighbors(v) {
		if c := a.color[u]; c >= 0 && !sc.taken[c] {
			sc.taken[c] = true
			free--
		}
	}
	return free
}

func (a *lubyAlg) Inbox(v int, in []sim.Received) {
	if a.color[v] >= 0 {
		return
	}
	ok := true
	for _, msg := range in {
		val := int(msg.Payload.(sim.UintPayload).Value & (1<<uint(a.width) - 1))
		if val == a.proposal[v] {
			ok = false
			break
		}
	}
	if ok {
		a.color[v] = a.proposal[v]
	}
}

func (a *lubyAlg) Done() bool {
	if !a.started {
		a.started = true
		return false
	}
	for _, c := range a.color {
		if c < 0 {
			return false
		}
	}
	return true
}

// ExactArbdefective computes a d-arbdefective q-coloring with the exact
// defect bound floor(Δ/q) ≤ d (requires q·(d+1) > Δ) in O(Δ + log* n)
// rounds: after a proper p = O(Δ)-coloring schedule, one schedule class per
// round picks the class in [q] least used by already-decided neighbors,
// orienting toward them. This is the "previous best" exact-defect
// arbdefective algorithm shape ([BBKO21]-style) that Theorem 1.3 improves
// on.
func ExactArbdefective(eng *sim.Engine, g *graph.Graph, q, d int) (coloring.Assignment, *graph.Oriented, sim.Stats, error) {
	delta := g.MaxDegree()
	if q*(d+1) <= delta {
		return nil, nil, sim.Stats{}, fmt.Errorf("baseline: q(d+1)=%d ≤ Δ=%d", q*(d+1), delta)
	}
	var total sim.Stats
	c1, m1, s1, err := linial.Proper(eng, graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	total = total.Add(s1)
	if err != nil {
		return nil, nil, total, err
	}
	sched, p, s2, err := linial.ReduceToP(eng, g, c1, m1)
	total = total.Add(s2)
	if err != nil {
		return nil, nil, total, err
	}
	alg := &exactArbAlg{sched: sched, q: q, phi: make([]int, g.N()), decidedAt: make([]int, g.N()), width: bitio.WidthFor(q)}
	for v := range alg.phi {
		alg.phi[v] = -1
		alg.decidedAt[v] = -1
	}
	s3, err := eng.Run(alg, p+2)
	total = total.Add(s3)
	if err != nil {
		return nil, nil, total, err
	}
	orient := graph.Orient(g, func(u, v int) bool {
		if alg.decidedAt[u] != alg.decidedAt[v] {
			return alg.decidedAt[u] > alg.decidedAt[v]
		}
		return u > v
	})
	phi := coloring.Assignment(alg.phi)
	if err := coloring.CheckOrientedDefective(orient, phi, q, d); err != nil {
		return nil, nil, total, err
	}
	return phi, orient, total, nil
}

// exactArbAlg processes one schedule class per round; members pick the
// least-used class among decided neighbors (pigeonhole: ≤ ⌊Δ/q⌋).
type exactArbAlg struct {
	sched     []int // proper schedule coloring
	q         int
	phi       []int
	decidedAt []int
	width     int
	round     int
	started   bool
}

func (a *exactArbAlg) Outbox(v int, out *sim.Outbox) {
	if a.phi[v] >= 0 || a.sched[v] != a.round-1 {
		out.IgnoreInbox() // Inbox reads only in the node's deciding round
	}
	if a.phi[v] >= 0 {
		out.Broadcast(sim.UintPayload{Value: uint64(a.phi[v]), Width: a.width})
	}
}

func (a *exactArbAlg) Inbox(v int, in []sim.Received) {
	if a.phi[v] >= 0 || a.sched[v] != a.round-1 {
		// Class c decides in round c+1, after the classes before it have
		// announced their picks.
		return
	}
	sc := scratchPool.Get().(*scratch)
	counts := slices.Grow(sc.counts[:0], a.q)[:a.q]
	clear(counts)
	for _, msg := range in {
		counts[msg.Payload.(sim.UintPayload).Value]++
	}
	best := 0
	for c := 1; c < a.q; c++ {
		if counts[c] < counts[best] {
			best = c
		}
	}
	sc.counts = counts
	scratchPool.Put(sc)
	a.phi[v] = best
	a.decidedAt[v] = a.round
}

func (a *exactArbAlg) Done() bool {
	if !a.started {
		a.started = true
		a.round = 1
		return false
	}
	a.round++
	for _, c := range a.phi {
		if c < 0 {
			return false
		}
	}
	return true
}

// GK21Rounds returns the analytic round count c·log²Δ·log n of the
// Ghaffari–Kuhn derandomized (degree+1)-list coloring algorithm, used as a
// cost-model comparison curve.
func GK21Rounds(delta, n int) int {
	if delta < 2 {
		delta = 2
	}
	if n < 2 {
		n = 2
	}
	l := math.Log2(float64(delta))
	return int(math.Ceil(l * l * math.Log2(float64(n))))
}

func intLog2(x int) int {
	l := 0
	for (1 << uint(l)) < x {
		l++
	}
	return l
}
