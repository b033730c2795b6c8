package oldc

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/sim"
)

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
// detects and repairs the damage with Repair over every node: the
// violators are re-solved against the *remaining* defect budgets (each
// node's defects reduced by its same-colored already-fixed out-neighbors)
// on a fresh fault-free engine, up to MaxRepairs times, and a
// deterministic greedy sweep recolors the stragglers. The result is either
// a coloring CheckOLDC accepts or a best-effort coloring together with a
// typed *ErrResidual naming the violators — never a silently invalid
// output.
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
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	rr := Repair(in, phi, all, pr, sim.Options{Tracer: eng.Tracer(), Metrics: eng.Metrics()}, "oldc")
	rep.Stats = rep.Stats.Add(rr.Stats)
	rep.InitialBad = rr.InitialBad
	rep.SurvivalRate = float64(n-rr.InitialBad) / float64(n)
	rep.Repairs = rr.Repairs
	rep.RepairRounds = rr.Stats.Rounds
	rep.ResidualSizes = rr.ResidualSizes
	rep.FallbackNodes = rr.SweepRecolored
	if len(rr.Residual) > 0 {
		return phi, rep, &ErrResidual{Violators: rr.Residual}
	}
	if err := coloring.CheckOLDC(in.O, in.Lists, phi); err != nil {
		// Unreachable if OLDCViolatorsIn and CheckOLDC agree; certify anyway.
		return phi, rep, fmt.Errorf("oldc: repaired coloring failed certification: %w", err)
	}
	return phi, rep, nil
}
