package maus21

import (
	"fmt"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options controls the trade-off.
type Options struct {
	// K is the palette trade-off knob: the target is O(K·Δ) colors, via a
	// defect budget of d = ⌈Δ̂/K⌉ − 1 per class. 0 (or K ≥ Δ̂) selects
	// d = 0, i.e. plain Linial with O(Δ²) colors in O(log* n) rounds.
	// Small K means fewer colors but O(d²) extra commit rounds.
	K int
}

// DefectFor returns the defect budget d the knob selects for maximum
// degree maxDeg: d = ⌈maxDeg/k⌉ − 1, clamped to ≥ 0.
func DefectFor(maxDeg, k int) int {
	if k <= 0 || k >= maxDeg {
		return 0
	}
	d := (maxDeg+k-1)/k - 1
	if d < 0 {
		d = 0
	}
	return d
}

// commitAlg is the palette-commit stage: q2 rounds, round t committing the
// nodes of intra color t−1. Committed nodes announce (class, pick) once;
// receivers of the same class mark the palette slot as taken.
type commitAlg struct {
	class   []int
	intra   []int
	q1      int
	q2      int
	palette int // d + 1

	sink sim.FaultSink
	used []uint64 // per-node taken-slot bitset, paletteWords words each
	wpn  int      // words per node
	pick []int

	round    int
	started  bool
	finished bool
}

func newCommitAlg(class, intra []int, q1, q2, palette int) *commitAlg {
	n := len(class)
	wpn := (palette + 63) / 64
	a := &commitAlg{
		class:   class,
		intra:   intra,
		q1:      q1,
		q2:      q2,
		palette: palette,
		used:    make([]uint64, n*wpn),
		wpn:     wpn,
		pick:    make([]int, n),
	}
	for v := range a.pick {
		a.pick[v] = -1
	}
	return a
}

// freeSlot returns the smallest palette color not marked in v's bitset. At
// most d = palette−1 same-class neighbors ever commit, so one of the
// palette slots is always free.
func (a *commitAlg) freeSlot(v int) int {
	base := v * a.wpn
	for w := 0; w < a.wpn; w++ {
		if inv := ^a.used[base+w]; inv != 0 {
			if s := w*64 + bits.TrailingZeros64(inv); s < a.palette {
				return s
			}
			return -1
		}
	}
	return -1
}

func (a *commitAlg) Outbox(v int, out *sim.Outbox) {
	if a.intra[v] != a.round-1 {
		return
	}
	s := a.freeSlot(v)
	if s < 0 {
		// Cannot happen on valid inputs (≤ d committed same-class
		// neighbors); leave the node uncommitted and let Solve report it.
		return
	}
	a.pick[v] = s
	out.Broadcast(pickMsg{
		class:      a.class[v],
		pick:       s,
		classWidth: bitio.WidthFor(a.q1),
		pickWidth:  bitio.WidthFor(a.palette),
	})
}

func (a *commitAlg) Inbox(v int, in []sim.Received) {
	if a.pick[v] >= 0 {
		return // already committed; later picks cannot constrain v
	}
	for _, msg := range in {
		m, ok := asPickMsg(msg.Payload, a.q1, a.palette, a.sink)
		if !ok || m.class != a.class[v] {
			continue
		}
		a.used[v*a.wpn+m.pick/64] |= 1 << uint(m.pick%64)
	}
}

func (a *commitAlg) Done() bool {
	if !a.started {
		a.started = true
		a.round = 1
		return false
	}
	a.round++
	if a.round > a.q2 {
		a.finished = true
	}
	return a.finished
}

// Solve computes a proper coloring of g with q₁·(d+1) = O(KΔ) colors (see
// the package comment for the pipeline). It returns the coloring, checked
// for properness, the palette bound, and the summed statistics of all
// three stages.
func Solve(eng *sim.Engine, g *graph.Graph, opts Options) (coloring.Assignment, int, sim.Stats, error) {
	n := g.N()
	o := graph.OrientSymmetric(g)
	d := DefectFor(g.MaxDegree(), opts.K)
	var total sim.Stats

	obs.EmitPhase(eng.Tracer(), "maus21/defective", obs.Attrs{"k": opts.K, "d": d})
	class, q1, st, err := linial.Defective(eng, o, linial.IDs(n), n, d)
	total = total.Add(st)
	if err != nil {
		return nil, 0, total, fmt.Errorf("maus21: defective stage: %w", err)
	}
	if d == 0 {
		// The classes are already a proper coloring.
		return finish(g, coloring.Assignment(class), q1, total)
	}

	obs.EmitPhase(eng.Tracer(), "maus21/intra", obs.Attrs{"q1": q1})
	intra, q2, st, err := linial.ProperWithin(eng, o, class, linial.IDs(n), n, d)
	total = total.Add(st)
	if err != nil {
		return nil, 0, total, fmt.Errorf("maus21: intra stage: %w", err)
	}

	obs.EmitPhase(eng.Tracer(), "maus21/commit", obs.Attrs{"q2": q2, "palette": d + 1})
	alg := newCommitAlg(class, intra, q1, q2, d+1)
	alg.sink = eng
	st, err = eng.Run(alg, q2+2)
	total = total.Add(st)
	if err != nil {
		return nil, 0, total, fmt.Errorf("maus21: commit stage: %w", err)
	}

	phi := make(coloring.Assignment, n)
	for v := 0; v < n; v++ {
		if alg.pick[v] < 0 {
			return nil, 0, total, fmt.Errorf("maus21: node %d never committed", v)
		}
		phi[v] = class[v]*(d+1) + alg.pick[v]
	}
	return finish(g, phi, q1*(d+1), total)
}

func finish(g *graph.Graph, phi coloring.Assignment, numColors int, total sim.Stats) (coloring.Assignment, int, sim.Stats, error) {
	if err := coloring.CheckProper(g, phi, numColors); err != nil {
		return nil, 0, total, fmt.Errorf("maus21: output invalid: %w", err)
	}
	return phi, numColors, total, nil
}
