package oldc

import (
	"math"
	"sort"
	"sync"

	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// MaxRepairs bounds the region re-solves one Repair call runs.
const MaxRepairs = 3

// MaxSweeps bounds the greedy fallback passes one Repair call runs if the
// region re-solves leave violators.
const MaxSweeps = 3

// RepairReport describes one Repair call.
type RepairReport struct {
	Stats          sim.Stats // accumulated over the region re-solves
	InitialBad     int       // violators among the candidates before any repair
	Repairs        int       // region re-solves run
	ResidualSizes  []int     // violator count entering each re-solve
	Recolored      int       // color changes, re-solves and sweep together
	SweepRecolored int       // color changes the greedy sweep made
	Residual       []int     // violators left, ascending (nil when none)
}

// Repair restores the OLDC constraint on a coloring whose violators all lie
// in cand. The violators among the candidates are re-solved with profile
// pr as the induced residual instance, whose lists carry each color's
// remaining defect budget, up to MaxRepairs times, stopping early when a
// re-solve does not shrink the violator set; whatever is left gets up to
// MaxSweeps greedy passes. phi is updated in place. cand may be unsorted
// and may repeat nodes.
//
// After each step only that step's violators and the in-neighbors of the
// nodes it recolored are rechecked: the OLDC constraint reads a node's own
// color and its out-neighbors' colors only, so no other node can start
// violating. Repair emits the phase events <phase>/repair and
// <phase>/greedy-sweep into opts.Tracer, and every re-solve runs on a
// fresh engine built from opts.
func Repair(in Input, phi coloring.Assignment, cand []int, pr cover.Params, opts sim.Options, phase string) RepairReport {
	var rep RepairReport
	viol := coloring.OLDCViolatorsIn(in.O, in.Lists, phi, cand)
	rep.InitialBad = len(viol)
	var prev []int
	for iter := 0; iter < MaxRepairs && len(viol) > 0; iter++ {
		rep.ResidualSizes = append(rep.ResidualSizes, len(viol))
		obs.EmitPhase(opts.Tracer, phase+"/repair", obs.Attrs{"retry": iter, "violators": len(viol)})
		prev = prev[:0]
		for _, v := range viol {
			prev = append(prev, phi[v])
		}
		stats, err := repairRegion(in, phi, viol, pr, opts)
		rep.Stats = rep.Stats.Add(stats)
		rep.Repairs++
		if err != nil {
			break // phi is unchanged: fall through to the greedy sweep
		}
		recheck := viol[:len(viol):len(viol)]
		for i, v := range viol {
			if phi[v] != prev[i] {
				rep.Recolored++
				recheck = appendIn(recheck, in.O, v)
			}
		}
		next := coloring.OLDCViolatorsIn(in.O, in.Lists, phi, recheck)
		stalled := len(next) >= len(viol)
		viol = next
		if stalled {
			break // no progress; don't burn the remaining budget
		}
	}
	if len(viol) > 0 {
		obs.EmitPhase(opts.Tracer, phase+"/greedy-sweep", obs.Attrs{"violators": len(viol)})
		viol, rep.SweepRecolored = sweep(in.O, in.Lists, phi, viol)
		rep.Recolored += rep.SweepRecolored
	}
	rep.Residual = viol
	return rep
}

// sweep is the greedy fallback: each violator in ascending id order takes
// greedyRecolor's color, and the violators and the in-neighbors of the
// recolored nodes are rechecked, for up to MaxSweeps passes or until none
// is left. It returns the final violators and the number of recolorings.
func sweep(o *graph.Oriented, lists []coloring.NodeList, phi coloring.Assignment, viol []int) ([]int, int) {
	recolored := 0
	for pass := 0; pass < MaxSweeps && len(viol) > 0; pass++ {
		recheck := viol[:len(viol):len(viol)]
		for _, v := range viol {
			if x, changed := greedyRecolor(o, lists, phi, v); changed {
				phi[v] = x
				recolored++
				recheck = appendIn(recheck, o, v)
			}
		}
		viol = coloring.OLDCViolatorsIn(o, lists, phi, recheck)
	}
	return viol, recolored
}

// appendIn appends v's in-neighbors to dst.
func appendIn(dst []int, o *graph.Oriented, v int) []int {
	for _, u := range o.In(v) {
		dst = append(dst, int(u))
	}
	return dst
}

// repairScratch holds the per-call state of repairRegion: the region
// membership table, the per-list-position fixed-neighbor counts, and the
// arenas backing the restricted color lists. Under churn repairRegion runs
// on many batches, so the scratch is pooled; it grows to the largest
// instance it has served.
type repairScratch struct {
	inRegion []bool              // parent-graph-sized membership table
	fixedCnt []int32             // per-list-position fixed same-colored out-neighbor counts
	listMem  []int               // arena backing the restricted Colors/Defect slices
	lists    []coloring.NodeList // restricted per-region-node lists
	inits    []int               // per-region-node initial colors
}

var repairPool = sync.Pool{New: func() any { return new(repairScratch) }}

// membership returns the region membership table sized for n nodes with
// exactly the region's entries set, plus a release function that clears
// them again.
func (sc *repairScratch) membership(n int, region []int) ([]bool, func()) {
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
func (sc *repairScratch) reserveLists(k int) {
	if cap(sc.lists) < k {
		sc.lists = make([]coloring.NodeList, k)
		sc.inits = make([]int, k)
	}
	sc.lists = sc.lists[:k]
	sc.inits = sc.inits[:k]
	sc.listMem = sc.listMem[:0]
}

// repairRegion re-solves the subinstance induced by the region nodes and
// writes the resulting colors back into phi, leaving every other node
// untouched: the induced oriented subgraph, lists restricted to colors
// that still have defect budget left after subtracting same-colored fixed
// (non-region) out-neighbors, and the original init coloring (a proper
// coloring stays proper on an induced subgraph). The residual solve runs
// with profile pr on a fresh engine built from opts, so repairs show up in
// the same trace as the run they fix.
//
// region must be duplicate-free (graph.ErrDuplicateVertex otherwise).
// On error phi is left unmodified.
func repairRegion(in Input, phi coloring.Assignment, region []int, pr cover.Params, opts sim.Options) (sim.Stats, error) {
	sc := repairPool.Get().(*repairScratch)
	defer repairPool.Put(sc)
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
	subPhi, stats, err := SolveMulti(sim.NewEngineWith(subO.Graph(), opts), rin, Options{Params: pr, SkipValidate: true})
	if err != nil {
		return stats, err
	}
	for i, v := range orig {
		phi[v] = subPhi[i]
	}
	return stats, nil
}

// greedyRecolor deterministically picks the on-list color of v with the
// most remaining defect budget against the current coloring (first-listed
// wins ties), returning the chosen color and whether it differs from
// phi[v]. It does not modify phi.
func greedyRecolor(o *graph.Oriented, lists []coloring.NodeList, phi coloring.Assignment, v int) (int, bool) {
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
