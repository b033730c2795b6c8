package linial

import (
	"fmt"
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
	started  bool
	finished bool
}

func newReduceAlg(o *graph.Oriented, init []int, m int, sched Schedule) *reduceAlg {
	colors := append([]int(nil), init...)
	return &reduceAlg{o: o, sched: sched, colors: colors, next: make([]int, len(init)), m: m}
}

func (a *reduceAlg) Outbox(v int, out *sim.Outbox) {
	out.Broadcast(sim.UintPayload{Value: uint64(a.colors[v]), Width: bitio.WidthFor(a.m)})
}

// reduceScratch is the per-callback scratch of one Inbox evaluation: the
// fast field evaluator plus the collected neighbor colors and the per-point
// value/collision buffers. Callbacks for different nodes run concurrently,
// so scratch is pooled, never stored on the algorithm.
type reduceScratch struct {
	gf  gfStep
	out []int   // out-neighbor colors this round
	fv  []int32 // own polynomial value per evaluation point
	cnt []int32 // colliding-neighbor count per evaluation point
}

var reduceScratchPool = sync.Pool{New: func() any { return new(reduceScratch) }}

// resize32 returns s with n zeroed entries, reusing capacity.
func resize32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func (a *reduceAlg) Inbox(v int, in []sim.Received) {
	sp := a.sched.Steps[a.step]
	q := sp.q
	sc := reduceScratchPool.Get().(*reduceScratch)
	sc.gf.init(sp)
	// Collect out-neighbor colors (messages arrive from all neighbors). A
	// payload that is not a clean UintPayload — e.g. corrupted in transit —
	// is skipped: a missing opponent can only make the argmin pick a point
	// with an unnoticed collision, which the validation after the run
	// catches; it can never panic the reduction.
	sc.out = sc.out[:0]
	for _, msg := range in {
		if !a.o.HasArc(v, msg.From) {
			continue
		}
		if a.class != nil && a.class[msg.From] != a.class[v] {
			continue
		}
		if pay, ok := msg.Payload.(sim.UintPayload); ok {
			sc.out = append(sc.out, int(pay.Value))
		}
	}
	c := a.colors[v]
	// Evaluate the node's own polynomial at every point, then sweep each
	// neighbor polynomial across all points against it. Equal colors share
	// the whole polynomial and collide everywhere; they carry defect from
	// previous defective steps and do not influence the argmin.
	fv := resize32(sc.fv, q)
	sc.fv = fv
	cnt := resize32(sc.cnt, q)
	sc.cnt = cnt
	sc.gf.load(c)
	for x := 0; x < q; x++ {
		fv[x] = int32(sc.gf.evalAt(uint64(x)))
	}
	for _, cu := range sc.out {
		if cu == c {
			continue
		}
		sc.gf.load(cu)
		for x := 0; x < q; x++ {
			if int32(sc.gf.evalAt(uint64(x))) == fv[x] {
				cnt[x]++
			}
		}
	}
	best, bestCnt := -1, int32(^uint32(0)>>1)
	for x := 0; x < q; x++ {
		if cnt[x] < bestCnt {
			best, bestCnt = x, cnt[x]
		}
	}
	a.next[v] = best*q + int(fv[best])
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
