package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ignoringDigest runs inboxDigest's traffic while a subset of nodes that
// changes every round does not read its inbox. With ignore set, those
// nodes call Outbox.IgnoreInbox; without it, they read their inbox and
// discard it, which is what the engine did for them before IgnoreInbox.
// Listening nodes hash every message as inboxDigest does and report each
// corrupted one as a decode fault, so the fault ledger depends on who
// listens. Every Inbox call is logged per node, and so is any message a
// node got in a round it ignored.
type ignoringDigest struct {
	*inboxDigest
	eng    *sim.Engine
	ignore bool
	calls  [][]int // per node: the round of each Inbox call
	leaked []int   // per node: messages delivered while it ignored its inbox
}

func newIgnoringDigest(g *graph.Graph, ignore bool) *ignoringDigest {
	return &ignoringDigest{inboxDigest: newInboxDigest(g), ignore: ignore,
		calls: make([][]int, g.N()), leaked: make([]int, g.N())}
}

// deaf reports whether v leaves its inbox unread in the current round: two
// nodes in five, a different two every round, silent senders among them.
func (a *ignoringDigest) deaf(v int) bool { return (3*v+a.round)%5 < 2 }

func (a *ignoringDigest) Outbox(v int, out *sim.Outbox) {
	if a.ignore && a.deaf(v) {
		out.IgnoreInbox()
	}
	a.inboxDigest.Outbox(v, out)
}

func (a *ignoringDigest) Inbox(v int, in []sim.Received) {
	a.calls[v] = append(a.calls[v], a.round)
	if a.deaf(v) {
		if a.ignore {
			a.leaked[v] += len(in)
		}
		return
	}
	for _, m := range in {
		if _, corrupt := m.Payload.(sim.CorruptPayload); corrupt {
			a.eng.ReportDecodeFault()
		}
	}
	a.inboxDigest.Inbox(v, in)
}

// ignoringRun is one traced run of ignoringDigest and what it observed.
type ignoringRun struct {
	alg   *ignoringDigest
	stats sim.Stats
	trace []byte
}

func runIgnoring(t *testing.T, g *graph.Graph, workers int, faults sim.FaultModel, ignore bool) ignoringRun {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	eng := sim.NewEngineWith(g, sim.Options{Workers: workers, Faults: faults, Tracer: tr})
	alg := newIgnoringDigest(g, ignore)
	alg.eng = eng
	stats, err := eng.Run(alg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return ignoringRun{alg, stats, buf.Bytes()}
}

// TestIgnoreInboxDigest checks that ignoring an inbox changes nothing but
// the work done for it: fault-free and under drop+flip, at every golden
// worker count, a run whose deaf nodes call IgnoreInbox matches the
// one-worker run whose deaf nodes read and discard their inboxes in
// Stats, fault ledger, trace bytes and every listening node's inbox hash.
func TestIgnoreInboxDigest(t *testing.T) {
	g := graph.GNP(240, 0.05, 13)
	models := []struct {
		name   string
		faults sim.FaultModel
	}{
		{"fault-free", nil},
		{"drop+flip", chaos.Compose(chaos.Drop(17, 0.15), chaos.Flip(19, 0.2))},
	}
	for _, m := range models {
		want := runIgnoring(t, g, 1, m.faults, false)
		if f := want.stats.TotalFaults(); m.faults != nil && (f.Dropped == 0 || f.Corrupted == 0 || f.DecodeFaults == 0) {
			t.Fatalf("%s: ledger totals %+v, want drops, corruptions and decode faults", m.name, f)
		}
		for _, w := range goldenWorkers {
			for _, ignore := range []bool{false, true} {
				tag := fmt.Sprintf("%s workers=%d ignore=%v", m.name, w, ignore)
				got := runIgnoring(t, g, w, m.faults, ignore)
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("%s: Stats differ:\n got %+v\nwant %+v", tag, got.stats, want.stats)
				}
				if !bytes.Equal(got.trace, want.trace) {
					t.Errorf("%s: trace bytes differ", tag)
				}
				if !slices.Equal(got.alg.h, want.alg.h) {
					t.Errorf("%s: listening nodes' inbox hashes differ", tag)
				}
				if leaked := slices.Max(got.alg.leaked); leaked != 0 {
					t.Errorf("%s: a node got %d messages in rounds it ignored", tag, leaked)
				}
			}
		}
	}
}

// countingFaults wraps a fault model and counts its Wire calls per wire
// and round; the engine asks it from every shard goroutine.
type countingFaults struct {
	sim.FaultModel
	n     int
	calls []atomic.Int32 // index (round·n + from)·n + to
}

func (c *countingFaults) Wire(round, from, to int) (sim.FaultOutcome, uint64) {
	c.calls[(round*c.n+from)*c.n+to].Add(1)
	return c.FaultModel.Wire(round, from, to)
}

// TestIgnoreInboxContract pins what IgnoreInbox promises: every node's
// Inbox runs exactly once per round, an ignoring node's with an empty
// inbox, and the fault model is asked about a wire once when it is
// accounted and once more when the receiver's inbox is gathered, which it
// is not when the receiver ignores its inbox.
func TestIgnoreInboxContract(t *testing.T) {
	g := graph.GNP(60, 0.15, 4)
	n, rounds := g.N(), 12
	model := chaos.Compose(chaos.Drop(17, 0.15), chaos.Flip(19, 0.2))
	for _, w := range goldenWorkers {
		count := &countingFaults{FaultModel: model, n: n, calls: make([]atomic.Int32, rounds*n*n)}
		alg := newIgnoringDigest(g, true)
		alg.eng = sim.NewEngineWith(g, sim.Options{Workers: w, Faults: count})
		stats, err := alg.eng.Run(alg, rounds)
		if err != nil {
			t.Fatal(err)
		}
		// inboxDigest's Done advances its round before each engine round,
		// so engine round r runs with a.round = r+1.
		want := make([]int, stats.Rounds)
		for r := range want {
			want[r] = r + 1
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(alg.calls[v], want) {
				t.Fatalf("workers=%d: node %d's Inbox ran in rounds %v, want %v", w, v, alg.calls[v], want)
			}
		}
		if leaked := slices.Max(alg.leaked); leaked != 0 {
			t.Errorf("workers=%d: a node got %d messages in rounds it ignored", w, leaked)
		}
		probe := newIgnoringDigest(g, true)
		for r := 0; r < stats.Rounds; r++ {
			probe.round = r + 1
			for from := 0; from < n; from++ {
				sends := (from+probe.round)%6 != 0
				for _, u := range g.Neighbors(from) {
					to := int(u)
					want := 0
					if sends {
						want = 2
						if probe.deaf(to) {
							want = 1
						}
					}
					if got := count.calls[(r*n+from)*n+to].Load(); int(got) != want {
						t.Fatalf("workers=%d round %d: Wire(%d→%d) asked %d times, want %d", w, r, from, to, got, want)
					}
				}
			}
		}
	}
}
