package linial

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Schedule is a precomputed sequence of polynomial reduction steps, shared
// global knowledge of all nodes (it only depends on m, β and the defect
// budget, not on the topology).
type Schedule struct {
	Steps   []stepParams
	Budgets []int // per-step allowed added defect (0 = proper step)
	Final   int   // number of colors after the last step
}

// ProperSchedule plans the iterated Linial reduction from m colors down to
// the fixpoint p² where p is the smallest prime > 2β.
func ProperSchedule(m, beta int) Schedule {
	p2 := SmallestPrimeAtLeast(2*beta + 1)
	target := p2 * p2
	s := Schedule{Final: m}
	guard := 0
	for s.Final > target {
		if guard++; guard > 64 {
			panic("linial: schedule failed to converge")
		}
		sp := chooseStep(s.Final, func(deg int) int { return beta * deg })
		s.Steps = append(s.Steps, sp)
		s.Budgets = append(s.Budgets, 0)
		s.Final = sp.q * sp.q
	}
	return s
}

// DefectiveSchedule plans a proper reduction to O(β²) colors followed by a
// single defective step with budget d, reaching O((β·D/(d+1))²) colors
// [Kuh09].
func DefectiveSchedule(m, beta, d int) Schedule {
	s := ProperSchedule(m, beta)
	sp := chooseStep(s.Final, func(deg int) int { return beta * deg / (d + 1) })
	if sp.q*sp.q < s.Final { // only add the step if it helps
		s.Steps = append(s.Steps, sp)
		s.Budgets = append(s.Budgets, d)
		s.Final = sp.q * sp.q
	}
	return s
}

// Rounds returns the number of communication rounds the schedule needs.
func (s Schedule) Rounds() int { return len(s.Steps) }

// reduceAlg executes a Schedule: one broadcast round per step. Defects from
// defective steps accumulate; the realized coloring after the last step is
// (Σ budgets)-defective w.r.t. out-neighbors.
type reduceAlg struct {
	o      *graph.Oriented
	sched  Schedule
	class  []int // when non-nil, only same-class neighbors are opponents
	colors []int
	next   []int
	m      int // current color bound
	step   int
	gf     gfStep // the current step's field and power table, read-only in rounds
	// defective marks a step with budget > 0. Its argmin counts every
	// point, so each node's polynomial is evaluated at every point once,
	// by its owner, instead of once per receiver: vals holds one record
	// of q+1 words per node, word 0 set to 1 once the node's Outbox has
	// written its values f_c(0), …, f_c(q−1) into words 1..q. Outbox
	// writes only the sender's own record in collect; Inbox callbacks
	// read any record in deliver.
	defective bool
	vals      []uint32
	started   bool
	finished  bool
}

func newReduceAlg(o *graph.Oriented, init []int, m int, sched Schedule) *reduceAlg {
	colors := append([]int(nil), init...)
	a := &reduceAlg{o: o, sched: sched, colors: colors, next: make([]int, len(init)), m: m}
	if len(sched.Steps) > 0 {
		a.begin()
	}
	return a
}

// begin sets up step a.step: its field and power table and, for a
// defective step, empty value records.
func (a *reduceAlg) begin() {
	sp := a.sched.Steps[a.step]
	a.gf.init(sp)
	a.gf.table()
	a.defective = a.sched.Budgets[a.step] > 0
	if a.defective {
		n := len(a.colors) * (sp.q + 1)
		a.vals = slices.Grow(a.vals[:0], n)[:n]
		clear(a.vals)
	}
}

func (a *reduceAlg) Outbox(v int, out *sim.Outbox) {
	if a.defective {
		sc := reduceScratchPool.Get().(*reduceScratch)
		w := a.gf.deg + 1
		sc.own = slices.Grow(sc.own[:0], w)[:w]
		rec := a.record(v)
		a.gf.values(a.colors[v], sc.own, rec[1:])
		rec[0] = 1
		reduceScratchPool.Put(sc)
	}
	out.Broadcast(sim.UintPayload{Value: uint64(a.colors[v]), Width: bitio.WidthFor(a.m)})
}

// record returns node v's value record of the current defective step.
func (a *reduceAlg) record(v int) []uint32 {
	w := int(a.gf.q) + 1
	return a.vals[v*w : (v+1)*w : (v+1)*w]
}

// opponent is a message that counts against the receiver's choice: its
// sender and the color it carries.
type opponent struct{ from, color int }

// reduceScratch is the per-callback scratch of one Inbox evaluation, of a
// reduction step or of FoldColors. Callbacks for different nodes run
// concurrently, so scratch is pooled, never stored on the algorithm.
type reduceScratch struct {
	opps   []opponent
	own    []uint64 // deg+1 base-q digits of one color, lowest first
	digits []uint64 // proper step: deg+1 base-q digits per opponent, lowest first
	vals   []uint32 // defective step: values of the node's own color, then of a fallback opponent's, at every point
	cnt    []int32  // defective step: colliding opponents per point
	taken  []bool   // fold: the colors below the floor a neighbor holds
}

var reduceScratchPool = sync.Pool{New: func() any { return new(reduceScratch) }}

func (a *reduceAlg) Inbox(v int, in []sim.Received) {
	sc := reduceScratchPool.Get().(*reduceScratch)
	sc.opps = a.opponents(v, in, sc.opps[:0])
	var x, fx uint64
	if a.defective {
		x, fx = a.argminRecords(v, sc)
	} else {
		x, fx = a.argminScan(v, sc)
	}
	a.next[v] = int(x*a.gf.q + fx)
	reduceScratchPool.Put(sc)
}

// opponents appends to dst the messages that count against v's choice:
// those from out-neighbors (messages arrive from all neighbors), restricted
// to v's class when one is set. The inbox is sorted by sender and the
// out-list by target, so one merge walk picks the out-neighbors. An equal
// color shares the whole polynomial and collides at every point; it
// carries defect from an earlier defective step and cannot change the
// argmin, so it is dropped here. A payload that is not a clean
// UintPayload — e.g. corrupted in transit — is skipped: a missing opponent
// can only make the argmin pick a point with an unnoticed collision, which
// the validation after the run catches; it can never panic the reduction.
func (a *reduceAlg) opponents(v int, in []sim.Received, dst []opponent) []opponent {
	c := a.colors[v]
	out := a.o.Out(v)
	j := 0
	for _, msg := range in {
		for j < len(out) && int(out[j]) < msg.From {
			j++
		}
		if j == len(out) {
			break
		}
		if int(out[j]) != msg.From {
			continue
		}
		if a.class != nil && a.class[msg.From] != a.class[v] {
			continue
		}
		if pay, ok := msg.Payload.(sim.UintPayload); ok && int(pay.Value) != c {
			dst = append(dst, opponent{from: msg.From, color: int(pay.Value)})
		}
	}
	return dst
}

// argminScan returns v's new color (x, f_c(x)) of a proper step: the
// smallest point x with the fewest colliding opponents. It walks the
// points in order and stops counting a point once it ties the best so
// far: it can no longer win, since only a strictly smaller count replaces
// the best. Counts are never negative, so the first collision-free point
// ends the scan.
func (a *reduceAlg) argminScan(v int, sc *reduceScratch) (x, fx uint64) {
	gf := &a.gf
	w := gf.deg + 1
	sc.digits = slices.Grow(sc.digits[:0], w*len(sc.opps))[:w*len(sc.opps)]
	for i, op := range sc.opps {
		gf.expand(op.color, sc.digits[i*w:(i+1)*w])
	}
	sc.own = slices.Grow(sc.own[:0], w)[:w]
	gf.expand(a.colors[v], sc.own)
	best, bestVal, bestCnt := uint64(0), uint64(0), math.MaxInt
	for x := uint64(0); x < gf.q && bestCnt > 0; x++ {
		pw := gf.row(x)
		fx := gf.dot(sc.own, pw)
		if cnt := gf.collisions(sc.digits, pw, fx, bestCnt); cnt < bestCnt {
			best, bestVal, bestCnt = x, fx, cnt
		}
	}
	return best, bestVal
}

// argminRecords returns v's new color (x, f_c(x)) of a defective step,
// the same choice argminScan makes: it counts the collisions at every
// point by comparing the opponents' value records with v's own.
func (a *reduceAlg) argminRecords(v int, sc *reduceScratch) (x, fx uint64) {
	q := int(a.gf.q)
	sc.vals = slices.Grow(sc.vals[:0], 2*q)[:2*q]
	own := a.valuesOf(v, a.colors[v], sc.vals[:q], sc)
	cnt := slices.Grow(sc.cnt[:0], q)[:q]
	clear(cnt)
	for _, op := range sc.opps {
		vals := a.valuesOf(op.from, op.color, sc.vals[q:], sc)[:q]
		for x, y := range own {
			if vals[x] == y {
				cnt[x]++
			}
		}
	}
	sc.cnt = cnt
	best := 0
	for x := 1; x < q; x++ {
		if cnt[x] < cnt[best] {
			best = x
		}
	}
	return uint64(best), uint64(own[best])
}

// valuesOf returns the values of color c's polynomial at every point of
// the defective step: node u's record when u's Outbox filled it this step
// and c is u's current color, else an evaluation into buf.
func (a *reduceAlg) valuesOf(u, c int, buf []uint32, sc *reduceScratch) []uint32 {
	if rec := a.record(u); rec[0] != 0 && c == a.colors[u] {
		return rec[1:]
	}
	w := a.gf.deg + 1
	sc.own = slices.Grow(sc.own[:0], w)[:w]
	a.gf.values(c, sc.own, buf)
	return buf
}

func (a *reduceAlg) Done() bool {
	if !a.started {
		a.started = true
		return false
	}
	// Commit the step computed in the previous round.
	copy(a.colors, a.next)
	sp := a.sched.Steps[a.step]
	a.m = sp.q * sp.q
	a.step++
	if a.step >= len(a.sched.Steps) {
		a.finished = true
	} else {
		a.begin()
	}
	return a.finished
}

// Proper computes a proper coloring with at most (smallest prime > 2β)²
// colors, starting from the given proper m-coloring (e.g. unique ids), in
// Schedule.Rounds() = O(log* m) communication rounds. It runs on any
// sim.Runner.
func Proper(r sim.Runner, o *graph.Oriented, init []int, m int) ([]int, int, sim.Stats, error) {
	sched := ProperSchedule(m, o.MaxOutDegree())
	if len(sched.Steps) == 0 {
		return append([]int(nil), init...), m, sim.Stats{}, nil
	}
	alg := newReduceAlg(o, init, m, sched)
	stats, err := r.Run(alg, sched.Rounds()+2)
	if err != nil {
		return nil, 0, stats, err
	}
	// Every edge carries an arc, and the arc holder avoids its target's
	// color, so the output is proper on the whole graph.
	if err := coloring.CheckProper(o.Graph(), alg.colors, sched.Final); err != nil {
		return nil, 0, stats, fmt.Errorf("linial: output invalid: %w", err)
	}
	return alg.colors, sched.Final, stats, nil
}

// Defective computes a d-defective (w.r.t. out-neighbors) coloring with
// O((β·D/(d+1))²) colors in O(log* m) rounds [Kuh09].
func Defective(r sim.Runner, o *graph.Oriented, init []int, m, d int) ([]int, int, sim.Stats, error) {
	sched := DefectiveSchedule(m, o.MaxOutDegree(), d)
	if len(sched.Steps) == 0 {
		return append([]int(nil), init...), m, sim.Stats{}, nil
	}
	alg := newReduceAlg(o, init, m, sched)
	stats, err := r.Run(alg, sched.Rounds()+2)
	if err != nil {
		return nil, 0, stats, err
	}
	if err := coloring.CheckOrientedDefective(o, alg.colors, sched.Final, d); err != nil {
		return nil, 0, stats, fmt.Errorf("linial: defective output invalid: %w", err)
	}
	return alg.colors, sched.Final, stats, nil
}

// ProperWithin computes a coloring that is proper within every class:
// adjacent nodes of equal class end up with different colors, while arcs
// crossing class boundaries are unconstrained. beta must bound the
// *same-class* out-degree of every node; the output uses at most (smallest
// prime > 2β)² colors after O(log* m) rounds. This is the restricted
// reduction Maus's coloring algorithm runs inside each defect class, where
// beta = d ≪ Δ keeps the intra-class palette small.
func ProperWithin(r sim.Runner, o *graph.Oriented, class, init []int, m, beta int) ([]int, int, sim.Stats, error) {
	sched := ProperSchedule(m, beta)
	if len(sched.Steps) == 0 {
		return append([]int(nil), init...), m, sim.Stats{}, nil
	}
	alg := newReduceAlg(o, init, m, sched)
	alg.class = class
	stats, err := r.Run(alg, sched.Rounds()+2)
	if err != nil {
		return nil, 0, stats, err
	}
	for v := 0; v < o.N(); v++ {
		c := alg.colors[v]
		if c < 0 || c >= sched.Final {
			return nil, 0, stats, fmt.Errorf("linial: node %d color %d outside [0,%d)", v, c, sched.Final)
		}
		for _, u := range o.Out(v) {
			if class[v] == class[u] && c == alg.colors[u] {
				return nil, 0, stats, fmt.Errorf("linial: nodes %d and %d share class %d and color %d", v, u, class[v], c)
			}
		}
	}
	return alg.colors, sched.Final, stats, nil
}

// IDs returns the identity initial coloring (unique ids as colors).
func IDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
