package linial

import (
	"fmt"
	"slices"

	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// This file implements the locally-iterative "pair / singleton" color
// reduction in the style of Szegedy–Vishwanathan and Barenboim–Elkin–
// Goldenberg [BEG18], which the paper's Theorem 1.3 uses as its clustering
// bootstrap:
//
//   - a proper m₀-coloring (m₀ ≤ p(p−1), p prime) is reduced to a proper
//     p-coloring in O(Δ) rounds, giving the classic O(Δ + log* n) route to
//     (Δ+1) colors; and
//   - the arbdefective generalization: nodes tolerate up to δ′ "row
//     conflicts" when they settle, which yields a d-arbdefective
//     O(Δ/d)-coloring in O(Δ/d + log* n) rounds (DESIGN.md substitution 3).
//
// A color c < p(p−1) is the line t ↦ a + t·b over GF(p) with a = c mod p
// and b = 1 + c div p (so b ≠ 0). In round t every unsettled node
// broadcasts its current row a + t·b mod p; a node settles on its row as a
// final color as soon as at most δ′ non-classmate neighbors show the same
// value. Two distinct lines agree at one t per period, so conflicts are
// rare and a pigeonhole over the round budget forces every node to settle.

type rowShiftAlg struct {
	p       int
	budget  int // δ′: tolerated row conflicts at settle time
	rounds  int // T: round budget
	pairA   []int
	pairB   []int
	classOf []int // original class (for classmate exclusion); nil in proper mode
	settled []bool
	color   []int
	settleT []int
	t       int
	started bool
}

type rowMsg struct {
	settled bool
	value   int
	a, b    int
	width   int
}

func (m rowMsg) EncodeBits(w *bitio.Writer) {
	if m.settled {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
	w.WriteUint(uint64(m.value), m.width)
	w.WriteUint(uint64(m.a), m.width)
	w.WriteUint(uint64(m.b), m.width)
}

func newRowShift(g *graph.Graph, classes []int, numClasses, p, budget, rounds int, excludeClassmates bool) *rowShiftAlg {
	if p*(p-1) < numClasses {
		panic(fmt.Sprintf("linial: %d classes do not fit in p(p-1) = %d lines", numClasses, p*(p-1)))
	}
	n := g.N()
	a := &rowShiftAlg{
		p: p, budget: budget, rounds: rounds,
		pairA: make([]int, n), pairB: make([]int, n),
		settled: make([]bool, n), color: make([]int, n), settleT: make([]int, n),
	}
	if excludeClassmates {
		a.classOf = classes
	}
	for v := 0; v < n; v++ {
		a.pairA[v] = classes[v] % p
		a.pairB[v] = 1 + classes[v]/p
		a.settleT[v] = -1
	}
	return a
}

func (a *rowShiftAlg) row(v int) int { return (a.pairA[v] + a.t*a.pairB[v]) % a.p }

func (a *rowShiftAlg) Outbox(v int, out *sim.Outbox) {
	w := bitio.WidthFor(a.p)
	if a.settled[v] {
		out.IgnoreInbox()
		out.Broadcast(rowMsg{settled: true, value: a.color[v], a: a.pairA[v], b: a.pairB[v], width: w})
	} else {
		out.Broadcast(rowMsg{settled: false, value: a.row(v), a: a.pairA[v], b: a.pairB[v], width: w})
	}
}

func (a *rowShiftAlg) Inbox(v int, in []sim.Received) {
	if a.settled[v] {
		return
	}
	r := a.row(v)
	conflicts := 0
	for _, msg := range in {
		m := msg.Payload.(rowMsg)
		if a.classOf != nil && m.a == a.pairA[v] && m.b == a.pairB[v] {
			continue // classmate: covered by the defective-class budget
		}
		if m.value == r {
			conflicts++
		}
	}
	if conflicts <= a.budget {
		a.settled[v] = true
		a.color[v] = r
		a.settleT[v] = a.t
	}
}

func (a *rowShiftAlg) Done() bool {
	if !a.started {
		a.started = true
		a.t = 1
		return false
	}
	a.t++
	if a.t > a.rounds {
		return true // round budget exhausted; caller checks completeness
	}
	for v := range a.settled {
		if !a.settled[v] {
			return false
		}
	}
	return true
}

func (a *rowShiftAlg) allSettled() bool {
	for _, s := range a.settled {
		if !s {
			return false
		}
	}
	return true
}

// ReduceToP reduces a proper coloring with m₀ colors to a proper p-coloring
// where p is the smallest prime with p(p−1) ≥ m₀ and p ≥ Δ+2, in O(Δ)
// rounds.
func ReduceToP(eng *sim.Engine, g *graph.Graph, init []int, m0 int) ([]int, int, sim.Stats, error) {
	delta := g.MaxDegree()
	// A neighbor causes at most one row conflict per period while unsettled
	// plus one per period after settling. Choosing T ≤ p bounds the total
	// number of conflict rounds by 2Δ, so with T = 2Δ+3 ≤ p some round is
	// conflict free and every node settles.
	p := SmallestPrimeAtLeast(2*delta + 3)
	for p*(p-1) < m0 {
		p = SmallestPrimeAtLeast(p + 1)
	}
	T := 2*delta + 3
	alg := newRowShift(g, init, m0, p, 0, T, false)
	stats, err := eng.Run(alg, T+2)
	if err != nil {
		return nil, 0, stats, err
	}
	if !alg.allSettled() {
		return nil, 0, stats, fmt.Errorf("linial: row shift did not settle within %d rounds", T)
	}
	if err := coloring.CheckProper(g, alg.color, p); err != nil {
		return nil, 0, stats, fmt.Errorf("linial: row shift output invalid: %w", err)
	}
	return alg.color, p, stats, nil
}

// DeltaPlusOne computes a proper (Δ+1)-coloring in O(Δ + log* n) rounds:
// Linial to O(Δ²) colors, row shift to p = O(Δ) colors, then one color
// class per round is folded into [0, Δ].
func DeltaPlusOne(eng *sim.Engine, g *graph.Graph, ids []int, m int) ([]int, sim.Stats, error) {
	var total sim.Stats
	o := graph.OrientSymmetric(g)
	c1, m1, s1, err := Proper(eng, o, ids, m)
	total = total.Add(s1)
	if err != nil {
		return nil, total, err
	}
	c2, p, s2, err := ReduceToP(eng, g, c1, m1)
	total = total.Add(s2)
	if err != nil {
		return nil, total, err
	}
	delta := g.MaxDegree()
	fin := &foldAlg{colors: c2, cur: p - 1, floor: delta + 1, width: bitio.WidthFor(p)}
	s3, err := eng.Run(fin, p+2)
	total = total.Add(s3)
	if err != nil {
		return nil, total, err
	}
	if err := coloring.CheckProper(g, fin.colors, delta+1); err != nil {
		return nil, total, fmt.Errorf("linial: Δ+1 output invalid: %w", err)
	}
	return fin.colors, total, nil
}

// FoldColors reduces a proper coloring with m colors to a proper
// floor-coloring, eliminating one color class per round (m − floor rounds):
// the classic one-color-per-round reduction of [Lin87, GPS88] that the
// faster algorithms in this repository are benchmarked against. floor must
// be at least Δ+1.
func FoldColors(eng *sim.Engine, g *graph.Graph, colors []int, m, floor int) ([]int, sim.Stats, error) {
	if floor < g.MaxDegree()+1 {
		return nil, sim.Stats{}, fmt.Errorf("linial: fold floor %d below Δ+1", floor)
	}
	fin := &foldAlg{colors: append([]int(nil), colors...), cur: m - 1, floor: floor, width: bitio.WidthFor(m)}
	stats, err := eng.Run(fin, m+2)
	if err != nil {
		return nil, stats, err
	}
	if err := coloring.CheckProper(g, fin.colors, floor); err != nil {
		return nil, stats, fmt.Errorf("linial: fold output invalid: %w", err)
	}
	return fin.colors, stats, nil
}

// foldAlg eliminates one color class per round: nodes with the currently
// highest color pick the smallest free color in [0, floor).
type foldAlg struct {
	colors  []int
	cur     int
	floor   int
	width   int
	started bool
}

func (a *foldAlg) Outbox(v int, out *sim.Outbox) {
	if a.colors[v] != a.cur {
		out.IgnoreInbox()
	}
	out.Broadcast(sim.UintPayload{Value: uint64(a.colors[v]), Width: a.width})
}

func (a *foldAlg) Inbox(v int, in []sim.Received) {
	if a.colors[v] != a.cur {
		return
	}
	sc := reduceScratchPool.Get().(*reduceScratch)
	taken := slices.Grow(sc.taken[:0], a.floor)[:a.floor]
	clear(taken)
	for _, msg := range in {
		c := int(msg.Payload.(sim.UintPayload).Value)
		if c < a.floor {
			taken[c] = true
		}
	}
	free := slices.Index(taken, false)
	sc.taken = taken
	reduceScratchPool.Put(sc)
	if free < 0 {
		panic("linial: fold found no free color (degree bound violated)")
	}
	a.colors[v] = free
}

func (a *foldAlg) Done() bool {
	if !a.started {
		a.started = true
		return a.cur < a.floor
	}
	a.cur--
	return a.cur < a.floor
}

// ArbdefectiveResult is the output of the Arbdefective bootstrap.
type ArbdefectiveResult struct {
	Classes    []int           // class per node, in [0, NumClasses)
	NumClasses int             // p
	Orient     *graph.Oriented // orientation certifying the arbdefect
	Arbdefect  int             // guaranteed bound on same-class out-degree
}

// Arbdefective computes a d-arbdefective q-coloring with q ≤ maxClasses
// colors and d = O(Δ/q), together with the certifying orientation, in
// O(Δ/q·const + log* n) rounds. This is the [BEG18]-style bootstrap used by
// Theorem 1.3 (see DESIGN.md substitution 3).
func Arbdefective(eng *sim.Engine, g *graph.Graph, ids []int, m, maxClasses int) (ArbdefectiveResult, sim.Stats, error) {
	var total sim.Stats
	delta := g.MaxDegree()
	if delta == 0 {
		classes := make([]int, g.N())
		return ArbdefectiveResult{Classes: classes, NumClasses: 1, Orient: graph.OrientByID(g), Arbdefect: 0}, total, nil
	}
	p := SmallestPrimeAtLeast(3)
	for SmallestPrimeAtLeast(p+1) <= maxClasses {
		p = SmallestPrimeAtLeast(p + 1)
	}
	if p > maxClasses {
		return ArbdefectiveResult{}, total, fmt.Errorf("linial: no prime ≤ maxClasses %d", maxClasses)
	}
	// Pick the defective budget δ″ so the class count fits into p(p−1)
	// lines.
	o := graph.OrientSymmetric(g)
	d2 := 0
	for {
		if DefectiveSchedule(m, delta, d2).Final <= p*(p-1) {
			break
		}
		if d2 == 0 {
			d2 = 1
		} else {
			d2 *= 2
		}
		// Very small p forces high-degree polynomial steps whose nominal
		// defect budget βD/(q_f−1) can exceed Δ; the realized defect is
		// still at most Δ, so the search may run well past 4Δ.
		if d2 > 64*delta+64 {
			return ArbdefectiveResult{}, total, fmt.Errorf("linial: cannot fit classes into %d lines", p*(p-1))
		}
	}
	defColors, q1, s1, err := Defective(eng, o, ids, m, d2)
	total = total.Add(s1)
	if err != nil {
		return ArbdefectiveResult{}, total, err
	}
	// Row-shift with tolerance δ′ = ceil(3Δ/p); every node settles within
	// T = 4p+4 rounds by the pigeonhole in DESIGN.md substitution 3.
	dPrime := (3*delta + p - 1) / p
	T := 4*p + 4
	alg := newRowShift(g, defColors, q1, p, dPrime, T, true)
	s2, err := eng.Run(alg, T+2)
	total = total.Add(s2)
	if err != nil {
		return ArbdefectiveResult{}, total, err
	}
	if !alg.allSettled() {
		return ArbdefectiveResult{}, total, fmt.Errorf("linial: arbdefective row shift did not settle within %d rounds", T)
	}
	// Orient same-final-color edges toward the earlier settler (ties by
	// id); everything else by id.
	orient := graph.Orient(g, func(u, v int) bool {
		if alg.color[u] == alg.color[v] {
			if alg.settleT[u] != alg.settleT[v] {
				return alg.settleT[u] > alg.settleT[v]
			}
		}
		return u > v
	})
	// The realized class defect never exceeds Δ regardless of the nominal
	// budget d2.
	boundD2 := d2
	if boundD2 > delta {
		boundD2 = delta
	}
	bound := dPrime + boundD2
	if err := coloring.CheckOrientedDefective(orient, alg.color, p, bound); err != nil {
		return ArbdefectiveResult{}, total, fmt.Errorf("linial: arbdefect bound violated: %w", err)
	}
	return ArbdefectiveResult{Classes: alg.color, NumClasses: p, Orient: orient, Arbdefect: bound}, total, nil
}
