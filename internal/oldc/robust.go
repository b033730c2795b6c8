package oldc

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// MaxRepairs bounds the distributed repair iterations SolveRobust runs
// after a faulty run, and those the incremental recoloring service runs
// per mutation batch.
const MaxRepairs = 3

// MaxSweeps bounds the deterministic greedy fallback passes that run if
// the distributed repairs leave violators, in SolveRobust and in the
// incremental recoloring service.
const MaxSweeps = 3

// RobustReport describes a detect-and-repair run: how much of the network
// survived the faults, and how much work the repairs cost.
type RobustReport struct {
	Stats         sim.Stats // accumulated over the faulty run and all repairs
	InitialBad    int       // violators right after the faulty run
	SurvivalRate  float64   // (n − InitialBad) / n
	Repairs       int       // distributed repair iterations executed
	RepairRounds  int       // simulator rounds spent inside repairs
	ResidualSizes []int     // violator count entering each repair iteration
	FallbackNodes int       // nodes recolored by the greedy sweep fallback
}

// ErrResidual is returned when repairs exhaust their budget with
// violations left: the output coloring is best-effort and the violation
// set is named explicitly, so callers can never mistake it for a valid
// coloring.
type ErrResidual struct {
	Violators []int
}

// Error reports how many nodes remain in violation, listing the first few.
func (e *ErrResidual) Error() string {
	return fmt.Sprintf("oldc: %d nodes still violate their defect bounds after repair: %v",
		len(e.Violators), truncated(e.Violators, 16))
}

func truncated(vs []int, max int) []int {
	if len(vs) <= max {
		return vs
	}
	return vs[:max]
}

// SolveRobust runs Solve with parameter profile pr (the zero value selects
// cover.Practical()) under whatever fault model is installed on eng, then
// detects and repairs the damage: it validates the output with
// internal/coloring, extracts the violating residual subgraph, and
// re-solves the residual against the *remaining* defect budgets (each
// node's defects reduced by its same-colored already-fixed out-neighbors)
// on a fresh fault-free engine, repeating up to MaxRepairs times. If
// distributed repairs stall, a deterministic greedy sweep recolors the
// stragglers. The result is either a coloring CheckOLDC accepts or a
// best-effort coloring together with a typed *ErrResidual naming the
// violators — never a silently invalid output.
//
// The repair engines are fault-free by design: detect-and-repair models
// transient faults that have passed by the time the (much smaller)
// residual instance is re-solved.
func SolveRobust(eng *sim.Engine, in Input, pr cover.Params) (coloring.Assignment, RobustReport, error) {
	var rep RobustReport
	// Validation is this function's job.
	phi, stats, err := Solve(eng, in, Options{Params: pr, SkipValidate: true})
	rep.Stats = stats
	if err != nil {
		return nil, rep, err
	}

	n := in.O.N()
	violators := coloring.OLDCViolators(in.O, in.Lists, phi)
	rep.InitialBad = len(violators)
	rep.SurvivalRate = float64(n-len(violators)) / float64(n)

	rsc := &RepairScratch{}
	for iter := 0; iter < MaxRepairs && len(violators) > 0; iter++ {
		rep.ResidualSizes = append(rep.ResidualSizes, len(violators))
		obs.EmitPhase(eng.Tracer(), "oldc/repair", obs.Attrs{"retry": iter, "violators": len(violators)})
		subStats, rerr := RepairRegion(in, phi, violators, RegionOptions{
			Params: pr, Tracer: eng.Tracer(), Metrics: eng.Metrics(), Scratch: rsc,
		})
		rep.Stats = rep.Stats.Add(subStats)
		rep.RepairRounds += subStats.Rounds
		rep.Repairs++
		if rerr != nil {
			break // fall through to the greedy sweep
		}
		next := coloring.OLDCViolators(in.O, in.Lists, phi)
		if len(next) >= len(violators) {
			violators = next
			break // no progress; don't burn the remaining budget
		}
		violators = next
	}

	if len(violators) > 0 {
		obs.EmitPhase(eng.Tracer(), "oldc/greedy-sweep", obs.Attrs{"violators": len(violators)})
		rep.FallbackNodes = greedySweep(in.O, in.Lists, phi, &violators)
	}
	if len(violators) > 0 {
		return phi, rep, &ErrResidual{Violators: violators}
	}
	if err := coloring.CheckOLDC(in.O, in.Lists, phi); err != nil {
		// Unreachable if OLDCViolators and CheckOLDC agree; certify anyway.
		return phi, rep, fmt.Errorf("oldc: repaired coloring failed certification: %w", err)
	}
	return phi, rep, nil
}

// greedySweep deterministically recolors violators in ascending id order,
// giving each the on-list color with the most remaining defect budget
// against the current coloring (GreedyRecolor), for up to MaxSweeps passes
// or until the violator set is empty. Returns the number of recolorings
// applied; the violator slice is updated in place to the final violation
// set.
func greedySweep(o *graph.Oriented, lists []coloring.NodeList, phi coloring.Assignment, violators *[]int) int {
	touched := 0
	for pass := 0; pass < MaxSweeps && len(*violators) > 0; pass++ {
		for _, v := range *violators {
			if x, changed := GreedyRecolor(o, lists, phi, v); changed {
				phi[v] = x
				touched++
			}
		}
		*violators = coloring.OLDCViolators(o, lists, phi)
	}
	return touched
}
