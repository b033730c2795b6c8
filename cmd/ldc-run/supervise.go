package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// superviseConfig carries the pieces of run() state the supervised
// degluby path needs: the inputs that rebuild the algorithm each attempt,
// the checkpoint policy, and the trace plumbing that keeps a resumed
// trace byte-identical to an uninterrupted one.
type superviseConfig struct {
	g           *graph.Graph
	seed        int64
	newEngine   func() *sim.Engine // fresh engine per attempt
	plan        *chaos.Plan        // nil = checkpointing without injected kills
	path        string             // checkpoint file (-ckpt)
	every       int                // checkpoint cadence in rounds (-ckpt-every)
	maxRestarts int
	traceFile   *os.File // nil when untraced or tracing to stdout
	tracer      *obs.JSONL
	reg         *obs.Registry
	stderr      io.Writer
}

// rewindTrace flushes the tracer and truncates the trace file back to
// off, so rounds a killed attempt traced past its last checkpoint are not
// recorded twice when the resumed attempt replays them. An offset beyond
// the current file (a checkpoint inherited from an earlier process whose
// trace this run recreated from scratch) is left alone: the new trace
// then covers only the resumed rounds.
func (c *superviseConfig) rewindTrace(off int64) error {
	if c.traceFile == nil || off < 0 {
		return nil
	}
	if err := c.tracer.Flush(); err != nil {
		return err
	}
	st, err := c.traceFile.Stat()
	if err != nil {
		return err
	}
	if off > st.Size() {
		return nil
	}
	if err := c.traceFile.Truncate(off); err != nil {
		return err
	}
	_, err = c.traceFile.Seek(off, io.SeekStart)
	return err
}

// superviseDegluby runs DegreeLuby under a checkpoint/restart supervisor:
// every attempt builds a fresh algorithm and engine, resumes from the
// checkpoint at c.path when one exists (so a previous process's crash is
// recoverable, not just in-process kills), and installs the checkpoint
// hook chained before the plan's kill hook so the very round a kill
// interrupts is already persisted. Kills restart with backoff via
// chaos.Supervise; any other failure propagates. It returns the coloring,
// the stats of the finishing attempt (identical to an uninterrupted run's
// by the RunFrom contract), and how many restarts were consumed.
func superviseDegluby(c superviseConfig) (coloring.Assignment, sim.Stats, int, error) {
	maxRounds := baseline.DegreeLubyMaxRounds(c.g.N())
	// The offset a fresh (checkpoint-less) attempt rewinds the trace to:
	// everything before the first round event, i.e. the run-start record.
	baseOffset := int64(-1)
	if c.traceFile != nil {
		if err := c.tracer.Flush(); err != nil {
			return nil, sim.Stats{}, 0, err
		}
		off, err := c.traceFile.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, sim.Stats{}, 0, err
		}
		baseOffset = off
	}
	ckp := &sim.Checkpointer{Path: c.path, Every: c.every, Metrics: c.reg}
	if c.traceFile != nil {
		ckp.TraceSync = func() (int64, error) {
			if err := c.tracer.Flush(); err != nil {
				return 0, err
			}
			return c.traceFile.Seek(0, io.SeekCurrent)
		}
	}
	// One kill hook for the whole supervised run: fired kills stay fired
	// across attempts, so a resumed run replays the killed round and lives.
	var killHook sim.RoundHook
	if c.plan != nil {
		killHook = c.plan.KillHook()
	}
	var (
		phi      coloring.Assignment
		stats    sim.Stats
		restarts int
	)
	err := chaos.Supervise(chaos.SuperviseOptions{
		MaxRestarts: c.maxRestarts,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		OnRestart: func(restart int, cause *chaos.KillError, backoff time.Duration) {
			restarts = restart
			fmt.Fprintf(c.stderr, "ldc-run: %v; restart %d after %v\n", cause, restart, backoff)
		},
	}, func(attempt int) error {
		alg := baseline.NewDegreeLuby(c.g, c.seed)
		eng := c.newEngine()
		eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), killHook))
		start, prior := 0, sim.Stats{}
		switch ck, err := sim.ReadCheckpoint(c.path); {
		case err == nil:
			if rerr := ck.Restore(alg); rerr != nil {
				return fmt.Errorf("restore checkpoint %s: %w", c.path, rerr)
			}
			if terr := c.rewindTrace(ck.TraceOffset); terr != nil {
				return terr
			}
			start, prior = ck.Round, ck.Stats
			if c.reg != nil {
				c.reg.Counter(obs.MetricCkptRestores).Add(1)
			}
			fmt.Fprintf(c.stderr, "ldc-run: resuming from %s at round %d\n", c.path, ck.Round)
		case os.IsNotExist(err):
			// No checkpoint yet: a killed attempt that never reached its
			// first checkpoint restarts from scratch, dropping any rounds it
			// traced.
			if terr := c.rewindTrace(baseOffset); terr != nil {
				return terr
			}
		default:
			return err
		}
		s, err := eng.RunFrom(alg, start, maxRounds, prior)
		if err != nil {
			return err
		}
		phi, stats = alg.Colors(), s
		return nil
	})
	return phi, stats, restarts, err
}

// superviseOldc runs the oldc two-phase solve under the same
// checkpoint/restart supervisor as superviseDegluby. Every attempt re-runs
// oldc.PrepareSolve (the case analysis plus the auxiliary class solve are
// deterministic, so each attempt rebuilds identical state) and then either
// starts the two-phase stage fresh or restores it from the checkpoint.
//
// The trace bookkeeping is order-sensitive: preparation itself emits trace
// events. A fresh attempt must rewind to baseOffset *before* preparing, or
// the truncation would delete the events preparation just wrote; a resumed
// attempt must prepare first and rewind to the checkpoint's offset
// *afterwards*, which truncates exactly the duplicate preparation events
// (the original attempt's copy sits before ck.TraceOffset). Either way the
// final trace is byte-identical to an uninterrupted run's.
//
// Kill hooks are installed only for the two-phase RunFrom, so a -chaos
// kill:R schedule counts two-phase rounds and never interrupts the
// (unsupervisable) auxiliary solve.
func superviseOldc(c superviseConfig, in oldc.Input, opts oldc.Options) (coloring.Assignment, sim.Stats, int, error) {
	baseOffset := int64(-1)
	if c.traceFile != nil {
		if err := c.tracer.Flush(); err != nil {
			return nil, sim.Stats{}, 0, err
		}
		off, err := c.traceFile.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, sim.Stats{}, 0, err
		}
		baseOffset = off
	}
	ckp := &sim.Checkpointer{Path: c.path, Every: c.every, Metrics: c.reg}
	if c.traceFile != nil {
		ckp.TraceSync = func() (int64, error) {
			if err := c.tracer.Flush(); err != nil {
				return 0, err
			}
			return c.traceFile.Seek(0, io.SeekCurrent)
		}
	}
	var killHook sim.RoundHook
	if c.plan != nil {
		killHook = c.plan.KillHook()
	}
	var (
		phi      coloring.Assignment
		stats    sim.Stats
		restarts int
	)
	err := chaos.Supervise(chaos.SuperviseOptions{
		MaxRestarts: c.maxRestarts,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		OnRestart: func(restart int, cause *chaos.KillError, backoff time.Duration) {
			restarts = restart
			fmt.Fprintf(c.stderr, "ldc-run: %v; restart %d after %v\n", cause, restart, backoff)
		},
	}, func(attempt int) error {
		ck, ckErr := sim.ReadCheckpoint(c.path)
		fresh := false
		switch {
		case ckErr == nil:
		case os.IsNotExist(ckErr):
			fresh = true
			if terr := c.rewindTrace(baseOffset); terr != nil {
				return terr
			}
		default:
			return ckErr
		}
		eng := c.newEngine()
		prep, err := oldc.PrepareSolve(eng, in, opts)
		if err != nil {
			return err
		}
		alg := prep.Algorithm()
		start, prior := 0, prep.PrepStats()
		if !fresh {
			if rerr := ck.Restore(alg); rerr != nil {
				return fmt.Errorf("restore checkpoint %s: %w", c.path, rerr)
			}
			if terr := c.rewindTrace(ck.TraceOffset); terr != nil {
				return terr
			}
			start, prior = ck.Round, ck.Stats
			if c.reg != nil {
				c.reg.Counter(obs.MetricCkptRestores).Add(1)
			}
			fmt.Fprintf(c.stderr, "ldc-run: resuming from %s at round %d\n", c.path, ck.Round)
		}
		eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), killHook))
		s, err := eng.RunFrom(alg, start, prep.MaxRounds(), prior)
		if err != nil {
			return err
		}
		phi, stats, err = prep.Finish(s)
		return err
	})
	return phi, stats, restarts, err
}
