package oldc

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/obs"
	"repro/internal/sim"
)

// PreparedSolve is Solve split at its supervisor seam: preparation (the
// Lemma 3.8 case analysis plus the auxiliary γ-class solve) on one side,
// the checkpointable two-phase stage on the other. A crash/restart
// supervisor re-runs PrepareSolve every attempt — preparation is a pure
// function of (Input, Options), and its auxiliary rounds run before any
// kill hook is installed, so `kill:R` schedules count two-phase rounds —
// then restores a checkpoint into Algorithm(), resumes with RunFrom, and
// calls Finish on the final stats.
type PreparedSolve struct {
	alg  *twoPhaseAlg
	eng  *sim.Engine
	in   Input
	opts Options
	prep sim.Stats
}

// PrepareSolve runs Solve's deterministic preparation on eng and returns
// the seam. It emits the same phase events Solve does, so a supervised
// trace is byte-identical to an unsupervised one.
func PrepareSolve(eng *sim.Engine, in Input, opts Options) (*PreparedSolve, error) {
	p, err := prepareSolve(eng, in, opts)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// prepareSolve is PrepareSolve, except that a failed preparation still
// returns the seam with the statistics it spent, which Solve reports.
func prepareSolve(eng *sim.Engine, in Input, opts Options) (*PreparedSolve, error) {
	alg, prep, err := prepareTwoPhase(eng, in, opts)
	p := &PreparedSolve{alg: alg, eng: eng, in: in, opts: opts, prep: prep}
	if err != nil {
		return p, err
	}
	obs.EmitPhase(eng.Tracer(), "oldc/two-phase", obs.Attrs{"h": alg.spec.h})
	return p, nil
}

// Algorithm returns the prepared two-phase algorithm. It implements
// sim.Snapshotter, so it can be driven by Checkpointer.Hook, restored via
// Checkpoint.Restore, and resumed with RunFrom.
func (p *PreparedSolve) Algorithm() sim.Snapshotter { return p.alg }

// PrepStats returns the statistics preparation consumed; pass them as the
// RunFrom prior of a fresh (checkpoint-less) attempt so the final ledger
// matches Solve's exactly.
func (p *PreparedSolve) PrepStats() sim.Stats { return p.prep }

// MaxRounds returns the round budget the two-phase stage needs.
func (p *PreparedSolve) MaxRounds() int { return twoPhaseMaxRounds(p.alg.spec.h) }

// Finish validates the completed run and returns the coloring; Solve ends
// with it too. runStats must be the RunFrom return value (which
// already includes the prior, i.e. preparation plus any resumed rounds).
func (p *PreparedSolve) Finish(runStats sim.Stats) (coloring.Assignment, sim.Stats, error) {
	publishCacheStats(p.eng, p.alg.cache)
	phi := coloring.Assignment(p.alg.phi)
	for v, c := range phi {
		if c < 0 {
			return nil, runStats, fmt.Errorf("oldc: node %d left uncolored", v)
		}
	}
	if !p.opts.SkipValidate {
		if err := coloring.CheckOLDC(p.in.O, p.in.Lists, phi); err != nil {
			return nil, runStats, fmt.Errorf("oldc: Solve output invalid: %w", err)
		}
	}
	return phi, runStats, nil
}
