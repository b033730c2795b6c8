package oldc

import (
	"math"
	"sort"

	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RepairScratch pools the per-call state of RepairRegion: the region
// membership table, the per-list-position fixed-neighbor counts, and the
// arenas backing the restricted color lists. The repair pipeline was
// written for one-shot post-fault recovery, where a few maps per call were
// noise; under sustained churn RepairRegion runs on every mutation batch,
// so its working set is pooled here instead. A zero RepairScratch is
// ready to use; it grows to the largest instance it has served and must
// not be shared between concurrent RepairRegion calls.
type RepairScratch struct {
	inRegion []bool              // parent-graph-sized membership table
	fixedCnt []int32             // per-list-position fixed same-colored out-neighbor counts
	listMem  []int               // arena backing the restricted Colors/Defect slices
	lists    []coloring.NodeList // restricted per-region-node lists
	inits    []int               // per-region-node initial colors
}

// membership returns the region membership table sized for n nodes with
// exactly the region's entries set, plus a release function that clears
// them again.
func (sc *RepairScratch) membership(n int, region []int) ([]bool, func()) {
	if cap(sc.inRegion) < n {
		sc.inRegion = make([]bool, n)
	}
	mem := sc.inRegion[:n]
	for _, v := range region {
		mem[v] = true
	}
	return mem, func() {
		for _, v := range region {
			mem[v] = false
		}
	}
}

// reserveLists sizes the per-region-node slices and resets the list arena.
// Earlier views keep their (possibly superseded) backing when the arena
// grows mid-build, which is safe because regions are never mutated once
// filled.
func (sc *RepairScratch) reserveLists(k int) {
	if cap(sc.lists) < k {
		sc.lists = make([]coloring.NodeList, k)
		sc.inits = make([]int, k)
	}
	sc.lists = sc.lists[:k]
	sc.inits = sc.inits[:k]
	sc.listMem = sc.listMem[:0]
}

// RegionOptions configures RepairRegion.
type RegionOptions struct {
	// Params is the residual solver's parameter profile; the zero value
	// selects cover.Practical().
	Params cover.Params
	// Tracer observes the residual solve's rounds (nil = untraced).
	Tracer obs.Tracer
	// Metrics receives the residual solve's engine metrics (nil = none).
	Metrics *obs.Registry
	// Faults, when non-nil, injects a structured fault schedule into the
	// residual solve's engine (see sim.FaultModel and internal/chaos). The
	// model sees the residual's local round clock and node ids, letting
	// chaos tests exercise faults during repair re-solves themselves.
	Faults sim.FaultModel
	// Scratch pools the repair working set across calls (nil = allocate
	// fresh; steady-state callers like the recoloring service pass one).
	Scratch *RepairScratch
}

// RepairRegion re-solves the subinstance induced by the region nodes and
// writes the resulting colors back into phi, leaving every other node
// untouched: the induced oriented subgraph, lists restricted to colors
// that still have defect budget left after subtracting same-colored fixed
// (non-region) out-neighbors, and the original init coloring (a proper
// coloring stays proper on an induced subgraph). The residual solve runs
// on a fresh engine — fault-free by default, since detect-and-repair
// models transient faults that have passed by the time the (much smaller)
// residual is re-solved, but opts.Faults can inject a schedule into the
// repair itself — that reports into opts.Tracer/opts.Metrics, so repairs
// show up in the same trace as the run they fix.
//
// region must be duplicate-free (graph.ErrDuplicateVertex otherwise).
// On error phi is left unmodified. This is the region-scoped core of
// SolveRobust's repair loop, factored out so incremental callers (the
// churn service) can repair a dirty set without a whole-graph solve.
func RepairRegion(in Input, phi coloring.Assignment, region []int, opts RegionOptions) (sim.Stats, error) {
	sc := opts.Scratch
	if sc == nil {
		sc = &RepairScratch{}
	}
	subO, orig, err := graph.InducedOriented(in.O, region)
	if err != nil {
		return sim.Stats{}, err
	}
	inRegion, releaseMem := sc.membership(in.O.N(), region)
	defer releaseMem()
	sc.reserveLists(len(orig))
	for i, v := range orig {
		l := in.Lists[v]
		// Count fixed (non-region) same-colored out-neighbors per list
		// position; off-list neighbor colors cannot consume any budget.
		if cap(sc.fixedCnt) < l.Len() {
			sc.fixedCnt = make([]int32, l.Len())
		}
		fixed := sc.fixedCnt[:l.Len()]
		for j := range fixed {
			fixed[j] = 0
		}
		for _, u := range in.O.Out(v) {
			if inRegion[u] || phi[u] == coloring.Unset {
				continue
			}
			if j := sort.SearchInts(l.Colors, phi[u]); j < len(l.Colors) && l.Colors[j] == phi[u] {
				fixed[j]++
			}
		}
		base := len(sc.listMem)
		for k, x := range l.Colors {
			if l.Defect[k]-int(fixed[k]) >= 0 {
				sc.listMem = append(sc.listMem, x)
			}
		}
		nc := len(sc.listMem) - base
		if nc == 0 {
			// Every color's budget is already spent by fixed neighbors; keep
			// the least-overspent color so the solver has a list to work
			// with. The node may stay violated and fall to the next round.
			bestK, bestRem := 0, math.MinInt
			for k := range l.Colors {
				if rem := l.Defect[k] - int(fixed[k]); rem > bestRem {
					bestRem, bestK = rem, k
				}
			}
			sc.listMem = append(sc.listMem, l.Colors[bestK], 0)
			nc = 1
		} else {
			for k := range l.Colors {
				if rem := l.Defect[k] - int(fixed[k]); rem >= 0 {
					sc.listMem = append(sc.listMem, rem)
				}
			}
		}
		sc.lists[i] = coloring.NodeList{
			Colors: sc.listMem[base : base+nc : base+nc],
			Defect: sc.listMem[base+nc : base+2*nc : base+2*nc],
		}
		sc.inits[i] = in.InitColors[v]
	}
	rin := Input{O: subO, SpaceSize: in.SpaceSize, Lists: sc.lists, InitColors: sc.inits, M: in.M}
	reng := sim.NewEngineWith(subO.Graph(), sim.Options{Tracer: opts.Tracer, Metrics: opts.Metrics, Faults: opts.Faults})
	subPhi, stats, err := SolveMulti(reng, rin, Options{Params: opts.Params, SkipValidate: true})
	if err != nil {
		return stats, err
	}
	for i, v := range orig {
		phi[v] = subPhi[i]
	}
	return stats, nil
}

// GreedyRecolor deterministically picks the on-list color of v with the
// most remaining defect budget against the current coloring (first-listed
// wins ties), returning the chosen color and whether it differs from
// phi[v]. It does not modify phi: it is the single-node step shared by the
// greedy sweep fallback of SolveRobust and the region-scoped sweep of the
// incremental recoloring service.
func GreedyRecolor(o *graph.Oriented, lists []coloring.NodeList, phi coloring.Assignment, v int) (int, bool) {
	bestX, bestSlack := -1, math.MinInt
	for k, x := range lists[v].Colors {
		same := 0
		for _, u := range o.Out(v) {
			if phi[u] == x {
				same++
			}
		}
		if slack := lists[v].Defect[k] - same; slack > bestSlack {
			bestSlack, bestX = slack, x
		}
	}
	return bestX, bestX >= 0 && bestX != phi[v]
}
