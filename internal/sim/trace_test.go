package sim

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// traceFault drops every 7th wire and corrupts every 11th, derived purely
// from (round, from, to) so the schedule is worker-count independent.
type traceFault struct{}

func (traceFault) Wire(round, from, to int) (FaultOutcome, uint64) {
	k := round*1000003 + from*1009 + to
	switch {
	case k%7 == 0:
		return FaultDrop, 0
	case k%11 == 0:
		return FaultCorrupt, uint64(k)
	}
	return FaultNone, 0
}

// runTraced floods a fixed graph with the given worker count and faults,
// returning the JSONL trace bytes and the final stats. The algorithm is
// fault_test.go's tolerantFlood so corrupted wires are skipped (and
// reported to the decode-fault ledger) instead of panicking.
func runTraced(t *testing.T, workers int, faults FaultModel) ([]byte, Stats) {
	t.Helper()
	g := graph.RandomRegular(64, 6, 3)
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	e := NewEngineWith(g, Options{Workers: workers, Faults: faults, Tracer: tr})
	stats, err := e.Run(&tolerantFlood{floodAlg: *newFlood(g.N()), eng: e}, 50)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tr.End(stats.TraceTotals())
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes(), stats
}

// TestTraceDeterminismAcrossWorkers pins the core trace guarantee: the
// same schedule produces byte-identical JSONL for every worker count,
// fault-free and under a structured fault model.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	for _, faults := range []FaultModel{nil, traceFault{}} {
		ref, refStats := runTraced(t, 1, faults)
		for _, workers := range []int{2, 4, 13} {
			got, gotStats := runTraced(t, workers, faults)
			if !bytes.Equal(ref, got) {
				t.Fatalf("faults=%v: trace for workers=%d differs from serial trace\nserial:\n%s\nworkers=%d:\n%s",
					faults != nil, workers, ref, workers, got)
			}
			// statsKey strips slices; full Stats equality is covered by
			// the existing determinism tests.
			if statsKey(refStats) != statsKey(gotStats) {
				t.Fatalf("stats diverged across worker counts")
			}
		}
	}
}

// statsKey reduces Stats to its comparable scalar part.
func statsKey(s Stats) [4]int64 {
	return [4]int64{int64(s.Rounds), s.Messages, s.TotalBits, int64(s.MaxMessageBits)}
}

// TestTraceReconcilesWithStats checks the accounting invariant the
// ldc-trace summarizer enforces: per-round events sum exactly to the
// run's final Stats, including the fault ledger.
func TestTraceReconcilesWithStats(t *testing.T) {
	raw, stats := runTraced(t, 4, traceFault{})
	events, err := obs.ParseTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := obs.Reconcile(events); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	rounds := 0
	var msgs, bits, dropped int64
	for _, ev := range events {
		if ev.T != "round" {
			continue
		}
		rounds++
		msgs += ev.Round.Messages
		bits += ev.Round.Bits
		dropped += ev.Round.Dropped
	}
	if rounds != stats.Rounds {
		t.Fatalf("trace has %d round events, stats report %d rounds", rounds, stats.Rounds)
	}
	if msgs != stats.Messages || bits != stats.TotalBits {
		t.Fatalf("trace sums (msgs=%d bits=%d) != stats (msgs=%d bits=%d)", msgs, bits, stats.Messages, stats.TotalBits)
	}
	if ledger := stats.TotalFaults(); dropped != ledger.Dropped {
		t.Fatalf("trace dropped %d != ledger %d", dropped, ledger.Dropped)
	}
	if dropped == 0 {
		t.Fatal("fault schedule dropped nothing; test is vacuous")
	}
}

// TestTracedRunKeepsStatsIdentical pins the zero-interference contract:
// installing a tracer must not change Stats at all relative to an
// untraced run of the same schedule.
func TestTracedRunKeepsStatsIdentical(t *testing.T) {
	g := graph.RandomRegular(64, 6, 3)
	base := NewEngineWith(g, Options{Workers: 4, Faults: traceFault{}})
	baseStats, err := base.Run(&tolerantFlood{floodAlg: *newFlood(g.N()), eng: base}, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, tracedStats := runTraced(t, 4, traceFault{})
	if statsKey(baseStats) != statsKey(tracedStats) {
		t.Fatalf("tracer changed stats: untraced %+v traced %+v", statsKey(baseStats), statsKey(tracedStats))
	}
	if len(baseStats.Faults) != len(tracedStats.Faults) {
		t.Fatalf("tracer changed fault ledger length: %d vs %d", len(baseStats.Faults), len(tracedStats.Faults))
	}
	for i := range baseStats.Faults {
		if baseStats.Faults[i] != tracedStats.Faults[i] {
			t.Fatalf("tracer changed fault ledger round %d: %+v vs %+v", i, baseStats.Faults[i], tracedStats.Faults[i])
		}
	}
}

// TestMetricsMatchStats checks the engine's registry reporting against
// the returned Stats (single run, so counters must equal stats exactly).
func TestMetricsMatchStats(t *testing.T) {
	g := graph.RandomRegular(64, 6, 3)
	reg := obs.NewRegistry()
	e := NewEngineWith(g, Options{Workers: 4, Faults: traceFault{}, Metrics: reg})
	stats, err := e.Run(&tolerantFlood{floodAlg: *newFlood(g.N()), eng: e}, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters[obs.MetricRounds]; got != int64(stats.Rounds) {
		t.Fatalf("rounds counter %d != stats %d", got, stats.Rounds)
	}
	if got := s.Counters[obs.MetricMessages]; got != stats.Messages {
		t.Fatalf("messages counter %d != stats %d", got, stats.Messages)
	}
	if got := s.Counters[obs.MetricBits]; got != stats.TotalBits {
		t.Fatalf("bits counter %d != stats %d", got, stats.TotalBits)
	}
	if got := s.Gauges[obs.MetricMaxMessageBits]; got != int64(stats.MaxMessageBits) {
		t.Fatalf("max-message gauge %d != stats %d", got, stats.MaxMessageBits)
	}
	ledger := stats.TotalFaults()
	if got := s.Counters[obs.MetricDropped]; got != ledger.Dropped {
		t.Fatalf("dropped counter %d != ledger %d", got, ledger.Dropped)
	}
	if got := s.Histograms[obs.MetricRoundMaxBits].Count; got != int64(stats.Rounds) {
		t.Fatalf("round-max histogram count %d != rounds %d", got, stats.Rounds)
	}
}
