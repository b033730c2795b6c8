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
	o        *graph.Oriented
	sched    Schedule
	class    []int // when non-nil, only same-class neighbors are opponents
	colors   []int
	next     []int
	m        int // current color bound
	step     int
	gf       gfStep // the current step's field and power table, read-only in rounds
	started  bool
	finished bool
}

func newReduceAlg(o *graph.Oriented, init []int, m int, sched Schedule) *reduceAlg {
	colors := append([]int(nil), init...)
	a := &reduceAlg{o: o, sched: sched, colors: colors, next: make([]int, len(init)), m: m}
	if len(sched.Steps) > 0 {
		a.gf.init(sched.Steps[0])
		a.gf.table()
	}
	return a
}

func (a *reduceAlg) Outbox(v int, out *sim.Outbox) {
	out.Broadcast(sim.UintPayload{Value: uint64(a.colors[v]), Width: bitio.WidthFor(a.m)})
}

// reduceScratch is the per-callback scratch of one Inbox evaluation: the
// base-q digit expansions of the node's own color and of its opponents'.
// Callbacks for different nodes run concurrently, so scratch is pooled,
// never stored on the algorithm.
type reduceScratch struct {
	own    []uint64 // deg+1 base-q digits of the node's color, lowest first
	digits []uint64 // deg+1 base-q digits per opponent, lowest first
}

var reduceScratchPool = sync.Pool{New: func() any { return new(reduceScratch) }}

func (a *reduceAlg) Inbox(v int, in []sim.Received) {
	gf := &a.gf
	sc := reduceScratchPool.Get().(*reduceScratch)
	c := a.colors[v]
	// Expand the opponents' digits once: out-neighbors (messages arrive
	// from all neighbors), restricted to the node's class when one is set.
	// The inbox is sorted by sender and the out-list by target, so one
	// merge walk picks the out-neighbors. An equal color shares the whole
	// polynomial and collides at every point; it carries defect from an
	// earlier defective step and cannot change the argmin, so it is dropped
	// here. A payload that is not a clean UintPayload — e.g. corrupted in
	// transit — is skipped: a missing opponent can only make the argmin
	// pick a point with an unnoticed collision, which the validation after
	// the run catches; it can never panic the reduction.
	w := gf.deg + 1
	sc.digits = sc.digits[:0]
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
			n := len(sc.digits)
			sc.digits = slices.Grow(sc.digits, w)[:n+w]
			gf.expand(int(pay.Value), sc.digits[n:])
		}
	}
	sc.own = slices.Grow(sc.own[:0], w)[:w]
	gf.expand(c, sc.own)
	// The new color is (x, f_c(x)) for the smallest point x with the fewest
	// colliding opponents. Walk the points in order and stop counting a
	// point once it ties the best so far: it can no longer win, since only
	// a strictly smaller count replaces the best. Counts are never
	// negative, so the first collision-free point ends the scan.
	best, bestVal, bestCnt := uint64(0), uint64(0), math.MaxInt
	for x := uint64(0); x < gf.q && bestCnt > 0; x++ {
		pw := gf.row(x)
		fx := gf.dot(sc.own, pw)
		if cnt := gf.collisions(sc.digits, pw, fx, bestCnt); cnt < bestCnt {
			best, bestVal, bestCnt = x, fx, cnt
		}
	}
	a.next[v] = int(best*gf.q + bestVal)
	reduceScratchPool.Put(sc)
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
		a.gf.init(a.sched.Steps[a.step])
		a.gf.table()
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
