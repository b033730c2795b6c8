// Package arb implements Theorem 1.3 of the paper: an oriented list
// defective coloring solver is turned into an algorithm for
// (degree+1)-list *arbdefective* coloring instances, i.e. instances with
// Σ_{x∈L_v}(d_v(x)+1) > deg(v), which includes the standard
// (degree+1)-list coloring problem (all defects zero) as a special case.
//
// The transformation follows the proof of Theorem 1.3: in each stage the
// maximum uncolored degree halves. A stage computes an arbdefective
// q-coloring of the uncolored subgraph (the [BEG18]-style bootstrap from
// internal/linial), then iterates over the q classes; in class i the nodes
// that still have at least Δ/2 uncolored neighbors solve an OLDC instance
// on the class subgraph (oriented by the bootstrap) with lists and defects
// shrunk by the colors already taken around them.
package arb

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// Config tunes the Theorem 1.3 driver.
type Config struct {
	// ClassFactor scales the per-stage class count q ≈ ClassFactor·√Λ
	// (the paper's q = O(Λ^{ν/(1+ν)}·κ^{1/(1+ν)}) with ν = 1).
	ClassFactor float64
	// MaxStages overrides the automatic ≈2·(log Δ + 8) stage cap before
	// the deterministic fallback schedule takes over (0 = automatic; used
	// by tests to exercise the fallback directly).
	MaxStages int
	// Engine configures every simulator engine the driver creates
	// (sub-instance batches, bootstraps, fallback): a Bandwidth enforces
	// the CONGEST assertion across the whole pipeline, and a Tracer also
	// receives the driver's phase events (stages, batches, fallback), so
	// per-round events from all sub-instances land in one trace stream.
	Engine sim.Options
}

// Result is the output of SolveListArbdefective.
type Result struct {
	Phi    coloring.Assignment
	Orient *graph.Oriented
	Stats  sim.Stats
	// Batches counts the OLDC sub-instances solved (stage × class pairs
	// with work).
	Batches int
	// Stages counts the degree-halving stages.
	Stages int
}

// SolveListArbdefective solves a (degree+1)-list arbdefective coloring
// instance: Σ_{x∈L_v}(d_v(x)+1) > deg_G(v) must hold at every node. The
// returned orientation certifies the arbdefects.
func SolveListArbdefective(g *graph.Graph, in *coloring.Instance, initColors []int, m int, solve oldc.Solver, cfg Config) (Result, error) {
	var res Result
	n := g.N()
	if cfg.ClassFactor <= 0 {
		cfg.ClassFactor = 1
	}
	for v := 0; v < n; v++ {
		if in.Lists[v].WeightSum() <= g.Degree(v) {
			return res, fmt.Errorf("arb: node %d violates Σ(d+1) > deg (%d ≤ %d)",
				v, in.Lists[v].WeightSum(), g.Degree(v))
		}
	}
	phi := coloring.NewAssignment(n)
	colorTime := make([]int, n) // global batch counter at coloring time
	arcs := newBatchArcs(g)
	batch := 0
	av := newResidualCounts(in)
	recordColored := func(colored []int) {
		for _, v := range colored {
			colorTime[v] = batch
		}
		for _, v := range colored {
			av.record(g, phi, v)
		}
	}

	delta := g.MaxDegree()
	lam := in.MaxListSize()
	stageDegree := delta
	maxStages := 8
	for d := delta; d > 0; d /= 2 {
		maxStages++
	}
	maxStages += maxStages
	if cfg.MaxStages > 0 {
		maxStages = cfg.MaxStages
	}
	for {
		if res.Stages >= maxStages {
			// Commit-valid-subset drops stalled the halving argument;
			// finish the leftovers with the deterministic fallback
			// schedule (see DESIGN.md substitution 2).
			st, err := fallbackSchedule(g, in, initColors, m, phi, av, colorTime, &batch, cfg.Engine)
			res.Stats = res.Stats.Add(st)
			if err != nil {
				return res, err
			}
			break
		}
		res.Stages++
		// Uncolored subgraph.
		var unc []int
		for v := 0; v < n; v++ {
			if phi[v] == coloring.Unset {
				unc = append(unc, v)
			}
		}
		if len(unc) == 0 {
			break
		}
		obs.EmitPhase(cfg.Engine.Tracer, "arb/stage", obs.Attrs{"stage": res.Stages, "uncolored": len(unc)})
		sub, orig := g.InducedSubgraph(unc)
		subDelta := sub.MaxDegree()
		if subDelta == 0 {
			// Isolated remainder: any color with a_v(x) ≤ d_v(x) works, and
			// one exists because Σ(d+1) > deg counts every colored
			// neighbor at most once per color.
			for _, v := range unc {
				x, ok := av.pick(v)
				if !ok {
					return res, fmt.Errorf("arb: node %d has no residual color", v)
				}
				phi[v] = x
			}
			batch++
			recordColored(unc)
			break
		}
		if subDelta > stageDegree {
			stageDegree = subDelta
		}
		// Per-stage class count q ≈ ClassFactor·√Λ, at least 2.
		q := int(math.Ceil(cfg.ClassFactor * math.Sqrt(float64(lam))))
		if q < 2 {
			q = 2
		}
		if q > subDelta+1 {
			q = subDelta + 1
		}
		subInit := restrict(initColors, orig)
		boot, bootStats, err := linial.Arbdefective(sim.NewEngineWith(sub, cfg.Engine), sub, subInit, m, q+1)
		res.Stats = res.Stats.Add(bootStats)
		if err != nil {
			return res, fmt.Errorf("arb: bootstrap failed: %w", err)
		}
		threshold := stageDegree / 2
		for class := 0; class < boot.NumClasses; class++ {
			// V_i′: uncolored class members that still have ≥ Δ/2 uncolored
			// neighbors (uncolored status is re-evaluated per class since
			// earlier classes were just colored).
			var members []int
			for si, v := range orig {
				if boot.Classes[si] != class || phi[v] != coloring.Unset {
					continue
				}
				uncNbrs := 0
				for _, u := range g.Neighbors(v) {
					if phi[u] == coloring.Unset {
						uncNbrs++
					}
				}
				if uncNbrs >= threshold {
					members = append(members, si)
				}
			}
			if len(members) == 0 {
				continue
			}
			batch++
			obs.EmitPhase(cfg.Engine.Tracer, "arb/batch", obs.Attrs{"stage": res.Stages, "class": class, "members": len(members)})
			st, colored, err := colorBatch(orig, members, boot.Orient, in, av, phi, arcs, subInit, m, solve, cfg)
			res.Stats = res.Stats.Add(st)
			if err != nil {
				return res, fmt.Errorf("arb: stage %d class %d: %w", res.Stages, class, err)
			}
			res.Batches++
			recordColored(colored)
		}
		// All remaining uncolored nodes have < stageDegree/2 uncolored
		// neighbors now.
		stageDegree = threshold
		if stageDegree < 1 {
			stageDegree = 1
		}
	}

	// Build the global orientation: later-colored → earlier-colored; ties
	// (same batch) follow the batch orientation; fall back to ids.
	orient := graph.Orient(g, func(u, v int) bool {
		if colorTime[u] != colorTime[v] {
			return colorTime[u] > colorTime[v]
		}
		if arcs.has(u, v) {
			return true
		}
		if arcs.has(v, u) {
			return false
		}
		return u > v
	})
	if err := coloring.CheckArb(in, phi, orient); err != nil {
		return res, fmt.Errorf("arb: output invalid: %w", err)
	}
	res.Phi = phi
	res.Orient = orient
	return res, nil
}

// colorBatch solves one OLDC sub-instance for the class members (stage
// subgraph ids, ascending), writes the committed colors into phi, records
// the batch orientation between committed members in arcs and returns the
// committed nodes' original ids.
func colorBatch(orig []int, members []int, bootOrient *graph.Oriented,
	in *coloring.Instance, av *residualCounts, phi coloring.Assignment, arcs *batchArcs,
	subInit []int, m int, solve oldc.Solver, cfg Config) (sim.Stats, []int, error) {

	var stats sim.Stats
	// The class members' subgraph with the orientation inherited from the
	// arbdefective bootstrap.
	batchO, _, err := graph.InducedOriented(bootOrient, members)
	if err != nil {
		return stats, nil, err
	}
	// Residual lists: keep colors with a_v(x) ≤ d_v(x), defect shrunk by
	// the colored neighbors. They are carved from two flat buffers sized
	// for the full lists.
	total := 0
	for _, si := range members {
		total += len(in.Lists[orig[si]].Colors)
	}
	cols, defs := make([]int, 0, total), make([]int, 0, total)
	lists := make([]coloring.NodeList, len(members))
	for i, si := range members {
		v := orig[si]
		l := in.Lists[v]
		start := len(cols)
		for idx, a := range av.of(v) {
			if d := l.Defect[idx]; int(a) <= d {
				cols = append(cols, l.Colors[idx])
				defs = append(defs, d-int(a))
			}
		}
		if len(cols) == start {
			return stats, nil, fmt.Errorf("arb: node %d has empty residual list", v)
		}
		lists[i] = coloring.NodeList{Colors: cols[start:len(cols):len(cols)], Defect: defs[start:len(defs):len(defs)]}
	}
	init := make([]int, len(members))
	for i, si := range members {
		init[i] = subInit[si]
	}
	oin := oldc.Input{O: batchO, SpaceSize: in.SpaceSize, Lists: lists, InitColors: init, M: m}
	// The driver validates the whole coloring at the end.
	asg, st, err := solve(sim.NewEngineWith(batchO.Graph(), cfg.Engine), oin, oldc.Options{SkipValidate: true})
	stats = stats.Add(st)
	if err != nil {
		return stats, nil, err
	}
	// Commit only the defect-respecting subset of the batch. At laptop
	// scale the practical parameter profile cannot afford the paper's full
	// polylog list slack, so the solver's pigeonhole occasionally misses;
	// dropping every violating node at once restores validity (removals
	// only decrease the defects of the survivors) and the dropped nodes are
	// recolored in a later batch or by the fallback schedule. A residual
	// list holds exactly the colors with a ≤ d, at defect d − a, so a
	// member violates it exactly when its color is off its list or more
	// than d − a of its batch out-neighbors share it.
	violating := make([]bool, len(members))
	for _, i := range coloring.OLDCViolators(batchO, lists, asg) {
		violating[i] = true
	}
	colored := make([]int, 0, len(members))
	for i, si := range members {
		if violating[i] {
			continue
		}
		v := orig[si]
		colored = append(colored, v)
		phi[v] = asg[i]
		for _, j := range batchO.Out(i) {
			if !violating[j] {
				arcs.add(v, orig[members[j]])
			}
		}
	}
	return stats, colored, nil
}

// batchArcs is the Theorem 1.3 driver's record of the direction each batch
// orientation gave the edges between the members it committed: one flag
// per adjacency slot of the input graph, set[off[u]+i] iff the batch arc
// u→g.Neighbors(u)[i] was committed. A committed node never joins a later
// batch, so the batch that colors both endpoints of an edge is the only
// one that records it — the edges whose endpoints share a coloring time.
type batchArcs struct {
	g   *graph.Graph
	off []int
	set []bool
}

func newBatchArcs(g *graph.Graph) *batchArcs {
	off := make([]int, g.N()+1)
	for v := 0; v < g.N(); v++ {
		off[v+1] = off[v] + g.Degree(v)
	}
	return &batchArcs{g: g, off: off, set: make([]bool, off[g.N()])}
}

// add records the arc u→w; {u, w} must be an edge of g.
func (b *batchArcs) add(u, w int) {
	i, _ := slices.BinarySearch(b.g.Neighbors(u), int32(w))
	b.set[b.off[u]+i] = true
}

// has reports whether the arc u→w was recorded.
func (b *batchArcs) has(u, w int) bool {
	i, ok := slices.BinarySearch(b.g.Neighbors(u), int32(w))
	return ok && b.set[b.off[u]+i]
}

// fallbackSchedule colors all remaining uncolored nodes deterministically:
// the leftover subgraph is properly colored with p = O(Δ_left) colors via
// the Linial + row-shift substrate, and then one color class per round
// picks an arbitrary residual color (class members are independent, so
// simultaneous picks cannot conflict). Existence of a residual color is
// guaranteed by Σ(d_v(x)+1) > deg(v).
func fallbackSchedule(g *graph.Graph, in *coloring.Instance, initColors []int, m int,
	phi coloring.Assignment, av *residualCounts, colorTime []int, batch *int,
	engOpts sim.Options) (sim.Stats, error) {

	var stats sim.Stats
	var unc []int
	for v := 0; v < g.N(); v++ {
		if phi[v] == coloring.Unset {
			unc = append(unc, v)
		}
	}
	if len(unc) == 0 {
		return stats, nil
	}
	sub, orig := g.InducedSubgraph(unc)
	eng := sim.NewEngineWith(sub, engOpts)
	c1, m1, s1, err := linial.Proper(eng, graph.OrientSymmetric(sub), restrict(initColors, orig), m)
	stats = stats.Add(s1)
	if err != nil {
		return stats, fmt.Errorf("arb: fallback bootstrap: %w", err)
	}
	c2, p, s2, err := linial.ReduceToP(eng, sub, c1, m1)
	stats = stats.Add(s2)
	if err != nil {
		return stats, fmt.Errorf("arb: fallback reduction: %w", err)
	}
	// The per-class picks below are zero-message rounds: they are counted
	// against the round complexity but never enter an engine, so a trace
	// records them as a phase attribute rather than round events.
	obs.EmitPhase(engOpts.Tracer, "arb/fallback", obs.Attrs{"nodes": len(unc), "classes": p})
	stats.Rounds += p // one round per fallback class
	for class := 0; class < p; class++ {
		*batch++
		var colored []int
		for si, v := range orig {
			if c2[si] != class {
				continue
			}
			x, ok := av.pick(v)
			if !ok {
				return stats, fmt.Errorf("arb: fallback found no residual color at node %d", v)
			}
			phi[v] = x
			colorTime[v] = *batch
			colored = append(colored, v)
		}
		for _, v := range colored {
			av.record(g, phi, v)
		}
	}
	return stats, nil
}

// residualCounts holds a_v(x), the number of colored neighbors of v with
// color x, for every x ∈ L_v: one flat counter array indexed like
// L_v.Colors through per-node offsets. Only uncolored nodes read their
// counters, and only at colors of their own list, so an update skips
// neighbors that are already colored and colors outside the neighbor's
// list.
type residualCounts struct {
	lists []coloring.NodeList
	off   []int   // node v's counters are cnt[off[v]:off[v+1]]
	cnt   []int32 // parallel to the concatenated lists' Colors
	// run[v] is L_v's first color when L_v is a run of consecutive colors
	// (every list of the standard instance), else −1: record then finds a
	// color's counter without reading the neighbor's list.
	run []int
}

func newResidualCounts(in *coloring.Instance) *residualCounts {
	off := make([]int, len(in.Lists)+1)
	run := make([]int, len(in.Lists))
	for v, l := range in.Lists {
		off[v+1] = off[v] + len(l.Colors)
		run[v] = -1
		if k := len(l.Colors); k > 0 && l.Colors[k-1]-l.Colors[0] == k-1 {
			run[v] = l.Colors[0]
		}
	}
	return &residualCounts{lists: in.Lists, off: off, cnt: make([]int32, off[len(in.Lists)]), run: run}
}

// of returns v's counters, parallel to in.Lists[v].Colors.
func (r *residualCounts) of(v int) []int32 { return r.cnt[r.off[v]:r.off[v+1]] }

// record counts v's new color phi[v] at every uncolored neighbor that has
// it in its list.
func (r *residualCounts) record(g *graph.Graph, phi coloring.Assignment, v int) {
	x := phi[v]
	for _, u := range g.Neighbors(v) {
		if phi[u] != coloring.Unset {
			continue
		}
		if b := r.run[u]; b >= 0 {
			if i := x - b; i >= 0 && i < r.off[u+1]-r.off[u] {
				r.cnt[r.off[u]+i]++
			}
		} else if i, ok := slices.BinarySearch(r.lists[u].Colors, x); ok {
			r.cnt[r.off[u]+i]++
		}
	}
}

// pick returns the first color x ∈ L_v with a_v(x) ≤ d_v(x).
func (r *residualCounts) pick(v int) (int, bool) {
	l := r.lists[v]
	for i, a := range r.of(v) {
		if int(a) <= l.Defect[i] {
			return l.Colors[i], true
		}
	}
	return 0, false
}

func restrict(vals []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = vals[v]
	}
	return out
}
