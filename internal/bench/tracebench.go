package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// RunTraced executes the canonical traced solve — the oldc suite's Δ=64
// case with an ldc-trace/v1 tracer installed — writes the JSONL stream to
// path ('-' = stdout), and verifies that the per-round events reconcile
// exactly with the final sim.Stats before returning. It is the acceptance
// check behind `ldc-bench -trace` and the CI trace smoke step: if the
// trace and the stats ever disagree, the run fails rather than shipping a
// plausible but wrong trace.
func RunTraced(path string) error {
	c := tracedInstance
	// Tee the trace into a buffer so reconciliation verifies the exact
	// bytes written to the output file.
	var buf bytes.Buffer
	var w io.Writer = &buf
	var f *os.File
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		w = io.MultiWriter(f, &buf)
	} else {
		w = io.MultiWriter(os.Stdout, &buf)
	}

	in := c.input()
	tr := obs.NewJSONL(w)
	eng := sim.NewEngineWith(in.O.Graph(), sim.Options{Tracer: tr})
	obs.EmitStart(tr, obs.RunInfo{Algo: "oldc", Graph: "regular", N: c.n, M: in.O.Graph().M(), MaxDegree: c.delta, Seed: 1})
	_, stats, err := oldc.Solve(eng, in, oldc.Options{})
	if err != nil {
		return fmt.Errorf("tracebench: solve: %w", err)
	}
	tr.End(stats.TraceTotals())
	if err := tr.Flush(); err != nil {
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}

	events, err := obs.ParseTrace(&buf)
	if err != nil {
		return fmt.Errorf("tracebench: emitted trace does not parse: %w", err)
	}
	if err := obs.Reconcile(events); err != nil {
		return fmt.Errorf("tracebench: trace does not reconcile with stats: %w", err)
	}
	fmt.Fprintf(os.Stderr, "tracebench: solve n=%d Δ=%d rounds=%d msgs=%d bits=%d — trace reconciles\n",
		c.n, c.delta, stats.Rounds, stats.Messages, stats.TotalBits)
	return nil
}
