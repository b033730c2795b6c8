package sim

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// stubModel is a local FaultModel used to exercise the engine without
// importing internal/chaos (which imports sim).
type stubModel func(round, from, to int) (FaultOutcome, uint64)

func (f stubModel) Wire(round, from, to int) (FaultOutcome, uint64) { return f(round, from, to) }

// drops is a fault model that drops exactly the wires pred selects and
// corrupts none.
func drops(pred func(round, from, to int) bool) FaultModel {
	return stubModel(func(round, from, to int) (FaultOutcome, uint64) {
		if pred(round, from, to) {
			return FaultDrop, 0
		}
		return FaultNone, 0
	})
}

func TestStructuredDropPopulatesLedger(t *testing.T) {
	g := graph.Ring(10)
	e := NewEngineWith(g, Options{
		Faults: stubModel(func(round, from, to int) (FaultOutcome, uint64) {
			if from == 0 || to == 0 {
				return FaultDrop, 0
			}
			return FaultNone, 0
		}),
	})
	a := newFlood(10)
	stats, err := e.Run(a, 50)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 10; v++ {
		if a.min[v] == 0 {
			t.Fatalf("node %d learned id 0 through a cut link", v)
		}
	}
	if len(stats.Faults) != stats.Rounds {
		t.Fatalf("ledger has %d entries for %d rounds", len(stats.Faults), stats.Rounds)
	}
	total := stats.TotalFaults()
	// Node 0 has 2 in + 2 out wires on a ring; every round drops all 4.
	if want := int64(4 * stats.Rounds); total.Dropped != want {
		t.Fatalf("Dropped = %d, want %d", total.Dropped, want)
	}
	if total.Corrupted != 0 || total.DecodeFaults != 0 {
		t.Fatalf("unexpected corruption counts: %+v", total)
	}
	// Dropped wires must not count as delivered messages.
	if stats.Messages != int64(stats.Rounds)*(10*2-4) {
		t.Fatalf("Messages = %d with %d rounds", stats.Messages, stats.Rounds)
	}
}

// corruptionProbe broadcasts a fixed varint and records what arrives.
type corruptionProbe struct {
	rounds     int64
	delivered  int64
	corrupted  int64
	badDecodes int64
	eng        *Engine
}

func (a *corruptionProbe) Outbox(v int, out *Outbox) {
	out.Broadcast(VarintPayload{Value: 41})
}

func (a *corruptionProbe) Inbox(v int, in []Received) {
	for _, m := range in {
		atomic.AddInt64(&a.delivered, 1)
		if cp, ok := m.Payload.(CorruptPayload); ok {
			atomic.AddInt64(&a.corrupted, 1)
			r := cp.Reader()
			got := r.ReadVarint()
			if r.Err() != nil || r.Remaining() != 0 || got != 41 {
				atomic.AddInt64(&a.badDecodes, 1)
				a.eng.ReportDecodeFault()
			}
		}
	}
}

func (a *corruptionProbe) Done() bool { return atomic.AddInt64(&a.rounds, 1) > 3 }

func TestCorruptionDeliversDamagedPayload(t *testing.T) {
	g := graph.Clique(6)
	e := NewEngine(g)
	e.Faults = stubModel(func(round, from, to int) (FaultOutcome, uint64) {
		if from == 0 {
			return FaultCorrupt, uint64(round*31 + to)
		}
		return FaultNone, 0
	})
	a := &corruptionProbe{eng: e}
	stats, err := e.Run(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 broadcasts to 5 neighbors each round; all 5 wires corrupt.
	wantCorrupt := int64(5 * stats.Rounds)
	if a.corrupted != wantCorrupt {
		t.Fatalf("receivers saw %d CorruptPayloads, want %d", a.corrupted, wantCorrupt)
	}
	total := stats.TotalFaults()
	if total.Corrupted != wantCorrupt {
		t.Fatalf("ledger Corrupted = %d, want %d", total.Corrupted, wantCorrupt)
	}
	// A single flipped bit in a 11-bit gamma code is usually detectable
	// (length changes), though some flips decode to a wrong-but-valid value;
	// every detected one must land in the ledger.
	if total.DecodeFaults != a.badDecodes {
		t.Fatalf("ledger DecodeFaults = %d, probe counted %d", total.DecodeFaults, a.badDecodes)
	}
	// Corrupted deliveries still count as messages and still account bits.
	if stats.Messages != int64(stats.Rounds*6*5) {
		t.Fatalf("Messages = %d", stats.Messages)
	}
}

func TestLedgerNilWithoutStructuredModel(t *testing.T) {
	g := graph.Ring(6)

	e := NewEngine(g)
	stats, err := e.Run(newFlood(6), 50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults != nil {
		t.Fatal("fault-free run must not allocate a ledger")
	}
}

func TestFaultLedgerWorkerIndependent(t *testing.T) {
	g := graph.GNP(120, 0.08, 5)
	model := stubModel(func(round, from, to int) (FaultOutcome, uint64) {
		h := uint64(round)*0x9e3779b97f4a7c15 ^ uint64(from)<<17 ^ uint64(to)
		h ^= h >> 29
		switch h % 11 {
		case 0:
			return FaultDrop, 0
		case 1:
			return FaultCorrupt, h
		}
		return FaultNone, 0
	})
	run := func(workers int) ([]int64, Stats) {
		e := NewEngineWith(g, Options{Workers: workers, Faults: model})
		a := &tolerantFlood{floodAlg: *newFlood(120), eng: e}
		stats, err := e.Run(a, 200)
		if err != nil {
			t.Fatal(err)
		}
		return a.min, stats
	}
	min1, stats1 := run(1)
	min8, stats8 := run(8)
	if !reflect.DeepEqual(min1, min8) {
		t.Fatal("results differ across worker counts under faults")
	}
	if !reflect.DeepEqual(stats1, stats8) {
		t.Fatalf("stats differ across worker counts:\n1: %+v\n8: %+v", stats1, stats8)
	}
	if stats1.TotalFaults().Dropped == 0 || stats1.TotalFaults().Corrupted == 0 {
		t.Fatal("test model produced no faults; tighten the hash")
	}
}

func TestCorruptPayloadAccountsOriginalSize(t *testing.T) {
	g := graph.Path(2)
	e := NewEngine(g)
	clean, err := e.Run(&oneShot{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(g)
	e2.Faults = stubModel(func(round, from, to int) (FaultOutcome, uint64) {
		return FaultCorrupt, 3
	})
	dirty, err := e2.Run(&oneShot{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Messages != 1 || clean.TotalBits != 9 {
		t.Fatalf("clean run delivered %d messages of %d bits in all, want one of 9", clean.Messages, clean.TotalBits)
	}
	if clean.TotalBits != dirty.TotalBits || clean.MaxMessageBits != dirty.MaxMessageBits {
		t.Fatalf("corruption changed accounting: clean %+v dirty %+v", clean, dirty)
	}
}

// tolerantFlood is floodAlg hardened against corrupted wires: damaged
// varints that fail to decode are reported and skipped instead of
// panicking on the type assert.
type tolerantFlood struct {
	floodAlg
	eng *Engine
}

func (a *tolerantFlood) Inbox(v int, in []Received) {
	for _, m := range in {
		var got int64
		switch p := m.Payload.(type) {
		case VarintPayload:
			got = int64(p.Value)
		case CorruptPayload:
			r := p.Reader()
			x := r.ReadVarint()
			if r.Err() != nil || r.Remaining() != 0 {
				a.eng.ReportDecodeFault()
				continue
			}
			got = int64(x)
		}
		if got < a.min[v] {
			a.min[v] = got
			atomic.AddInt64(&a.changed, 1)
		}
	}
}

// oneShot has node 0 broadcast one fixed-width message in the first round
// and stops.
type oneShot struct{ round int64 }

func (a *oneShot) Outbox(v int, out *Outbox) {
	if atomic.LoadInt64(&a.round) == 1 && v == 0 {
		out.Broadcast(UintPayload{Value: 0xAB, Width: 9})
	}
}
func (a *oneShot) Inbox(v int, in []Received) {}
func (a *oneShot) Done() bool                 { return atomic.AddInt64(&a.round, 1) > 2 }

// sinkCount counts reported decode faults.
type sinkCount struct{ n int }

func (s *sinkCount) ReportDecodeFault() { s.n++ }

// TestReparse pins the corrupted-wire rule: a CorruptPayload is accepted
// only when decode succeeds and consumes every bit; a rejection is
// reported once (and a nil sink is allowed); a payload of another kind is
// skipped unreported and never decoded.
func TestReparse(t *testing.T) {
	w := bitio.NewWriter()
	w.WriteUint(5, 3)
	three := CorruptPayload{Bits: w.Bytes(), NBit: 3}
	four := CorruptPayload{Bits: w.Bytes(), NBit: 4}
	readThree := func(r *bitio.Reader) error {
		if r.ReadUint(3) != 5 || r.Err() != nil {
			return &DecodeError{Kind: "test", Reason: "wrong value", Err: r.Err()}
		}
		return nil
	}
	sink := &sinkCount{}
	if !Reparse(three, sink, readThree) || sink.n != 0 {
		t.Fatalf("exact payload: rejected or reported (%d)", sink.n)
	}
	if Reparse(four, sink, readThree) || sink.n != 1 {
		t.Fatalf("trailing bit: accepted or reported %d times, want once", sink.n)
	}
	if Reparse(CorruptPayload{Bits: w.Bytes(), NBit: 2}, sink, readThree) || sink.n != 2 {
		t.Fatalf("truncated payload: accepted or reported %d times in all, want 2", sink.n)
	}
	if Reparse(four, nil, readThree) {
		t.Fatal("trailing bit accepted with a nil sink")
	}
	decoded := false
	if Reparse(UintPayload{Value: 5, Width: 3}, sink, func(*bitio.Reader) error { decoded = true; return nil }) || decoded || sink.n != 2 {
		t.Fatalf("wrong kind: accepted, decoded or reported (%d)", sink.n)
	}
	err := error(&DecodeError{Kind: "test", Reason: "truncated", Err: bitio.ErrTruncated})
	if !errors.Is(err, bitio.ErrTruncated) || err.Error() != "bad test message: truncated: "+bitio.ErrTruncated.Error() {
		t.Fatalf("DecodeError %q does not wrap its cause", err)
	}
}
