package congest

import (
	"bytes"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestPipelineTraceReconciles runs the full Theorem 1.4 pipeline — many
// engines (bootstrap, per-batch solvers, possibly the fallback) feeding one
// tracer — and checks that the per-round events reconcile with the final
// Result.Stats. This is the hardest reconciliation case in the repo: the
// fallback schedule contributes synthetic (engine-free) rounds, so traced
// rounds may undercount but bits/messages must match exactly.
func TestPipelineTraceReconciles(t *testing.T) {
	g := graph.RandomRegular(48, 8, 3)
	in := coloring.DegreePlusOne(g, 2*g.MaxDegree()+2, 5)

	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	reg := obs.NewRegistry()
	res, err := DegreePlusOneList(g, in, Config{Tracer: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tr.End(res.Stats.TraceTotals())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := obs.Reconcile(events); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	phases := map[string]bool{}
	for _, ev := range events {
		if ev.T == "phase" {
			phases[ev.Name] = true
		}
	}
	for _, want := range []string{"congest/linial-bootstrap", "congest/arb-driver", "arb/stage"} {
		if !phases[want] {
			t.Errorf("trace has no %q phase event (phases seen: %v)", want, phases)
		}
	}

	// The registry saw the same engines as the tracer, so the shared
	// counters must match Stats exactly too.
	s := reg.Snapshot()
	if got := s.Counters[obs.MetricMessages]; got != res.Stats.Messages {
		t.Fatalf("messages counter %d != stats %d", got, res.Stats.Messages)
	}
	if got := s.Counters[obs.MetricBits]; got != res.Stats.TotalBits {
		t.Fatalf("bits counter %d != stats %d", got, res.Stats.TotalBits)
	}
}

// TestPipelineTracingChangesNothing pins the zero-interference contract at
// the pipeline level: the coloring and stats must be identical with and
// without observers installed.
func TestPipelineTracingChangesNothing(t *testing.T) {
	g := graph.RandomRegular(40, 6, 1)
	base, err := DeltaPlusOne(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	traced, err := DeltaPlusOne(g, Config{Tracer: tr, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for v := range base.Phi {
		if base.Phi[v] != traced.Phi[v] {
			t.Fatalf("tracing changed the coloring at node %d: %d vs %d", v, base.Phi[v], traced.Phi[v])
		}
	}
	if base.Stats.TraceTotals() != traced.Stats.TraceTotals() {
		t.Fatalf("tracing changed stats: %+v vs %+v", base.Stats.TraceTotals(), traced.Stats.TraceTotals())
	}
}
