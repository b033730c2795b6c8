// Package baseline implements the competitor algorithms the paper's
// contributions are measured against in the experiments:
//
//   - SlowFold: the classic O(Δ² + log* n) route [Lin87, GPS88] — Linial to
//     O(Δ²) colors, then one color class folded per round;
//   - LinearDeltaPlusOne: the O(Δ + log* n) locally-iterative algorithm
//     [SV93, BEK14, BEG18], via the row-shift reduction;
//   - Luby: the classic randomized (Δ+1)-coloring (O(log n) rounds w.h.p.),
//     the randomized reference point;
//   - MT20List: Maus–Tonoyan list coloring on directed graphs (lists of
//     size ≈ α·β²·τ, 2+O(log β) rounds after Linial) — the zero-defect
//     special case of the paper's OLDC algorithm;
//   - GK21Rounds: the analytic O(log²Δ·log n) round formula of
//     Ghaffari–Kuhn, used as a cost-model curve (DESIGN.md substitution 4).
package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/oldc"
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
	started  bool
}

func newLubyAlg(g *graph.Graph, seed int64) *lubyAlg {
	n := g.N()
	a := &lubyAlg{g: g, rng: make([]*rand.Rand, n), color: make([]int, n), proposal: make([]int, n)}
	for v := 0; v < n; v++ {
		a.rng[v] = rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
		a.color[v] = -1
	}
	a.width = bitio.WidthFor(g.MaxDegree() + 2)
	return a
}

func (a *lubyAlg) Outbox(v int, out *sim.Outbox) {
	if a.color[v] >= 0 {
		out.Broadcast(sim.Composite{sim.UintPayload{Value: 1, Width: 1}, sim.UintPayload{Value: uint64(a.color[v]), Width: a.width}})
		return
	}
	// Propose a random palette color not yet claimed by a decided neighbor.
	palette := a.freePalette(v)
	a.proposal[v] = palette[a.rng[v].Intn(len(palette))]
	out.Broadcast(sim.Composite{sim.UintPayload{Value: 0, Width: 1}, sim.UintPayload{Value: uint64(a.proposal[v]), Width: a.width}})
}

func (a *lubyAlg) freePalette(v int) []int {
	delta := a.g.MaxDegree()
	taken := make([]bool, delta+1)
	for _, u := range a.g.Neighbors(v) {
		if c := a.color[u]; c >= 0 {
			taken[c] = true
		}
	}
	var free []int
	for c := 0; c <= delta; c++ {
		if !taken[c] {
			free = append(free, c)
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
		c := msg.Payload.(sim.Composite)
		val := int(c[1].(sim.UintPayload).Value)
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
	alg := &exactArbAlg{g: g, sched: sched, q: q, phi: make([]int, g.N()), decidedAt: make([]int, g.N()), width: bitio.WidthFor(q)}
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
	g         *graph.Graph
	sched     []int // proper schedule coloring
	q         int
	phi       []int
	decidedAt []int
	width     int
	round     int
	started   bool
}

func (a *exactArbAlg) Outbox(v int, out *sim.Outbox) {
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
	counts := make([]int, a.q)
	for _, msg := range in {
		counts[msg.Payload.(sim.UintPayload).Value]++
	}
	best := 0
	for c := 1; c < a.q; c++ {
		if counts[c] < counts[best] {
			best = c
		}
	}
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

// MT20List solves proper list coloring on a directed graph with lists of
// size Ω(β²·τ) in 2 + O(log β) rounds after the initial coloring: the
// zero-defect special case of the paper's Lemma 3.6 algorithm, which is
// exactly the Maus–Tonoyan setting.
func MT20List(eng *sim.Engine, in oldc.Input) (coloring.Assignment, sim.Stats, error) {
	return oldc.SolveMulti(eng, in, oldc.Options{})
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

// Verify is a convenience that fails with a descriptive error when a
// baseline produces an invalid proper coloring.
func Verify(g *graph.Graph, phi coloring.Assignment, colors int, name string) error {
	if err := coloring.CheckProper(g, phi, colors); err != nil {
		return fmt.Errorf("baseline %s: %w", name, err)
	}
	return nil
}

func intLog2(x int) int {
	l := 0
	for (1 << uint(l)) < x {
		l++
	}
	return l
}
