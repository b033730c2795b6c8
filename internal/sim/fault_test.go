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

// TestAsUint pins the corrupted-wire rule of the index and color messages.
func TestAsUint(t *testing.T) {
	corrupt := func(x uint64, width, nbit int) CorruptPayload {
		w := bitio.NewWriter()
		w.WriteUint(x, width)
		w.WriteUint(0, 8)
		return CorruptPayload{Bits: w.Bytes(), NBit: nbit}
	}
	t.Run("round_trip", func(t *testing.T) {
		sink := &sinkCount{}
		for _, c := range []struct{ x, bound int }{{13, 16}, {7, 10}, {512, 4096}, {99, 100}} {
			width := bitio.WidthFor(c.bound)
			if got, ok := AsUint(UintPayload{Value: uint64(c.x), Width: width}, c.bound, sink); !ok || got != c.x {
				t.Errorf("clean %d of %d: got %d, %v", c.x, c.bound, got, ok)
			}
			if got, ok := AsUint(corrupt(uint64(c.x), width, width), c.bound, sink); !ok || got != c.x {
				t.Errorf("re-parsed %d of %d: got %d, %v", c.x, c.bound, got, ok)
			}
		}
		if sink.n != 0 {
			t.Fatalf("accepted payloads reported %d faults", sink.n)
		}
	})
	t.Run("out_of_range", func(t *testing.T) {
		// WidthFor(10) = 4 bits encode up to 15; WidthFor(100) = 7 bits up to 127.
		sink := &sinkCount{}
		for _, c := range []struct{ x, bound int }{{10, 10}, {12, 10}, {15, 10}, {100, 100}, {101, 100}, {127, 100}} {
			width := bitio.WidthFor(c.bound)
			if _, ok := AsUint(corrupt(uint64(c.x), width, width), c.bound, sink); ok {
				t.Errorf("%d accepted at bound %d", c.x, c.bound)
			}
		}
		if sink.n != 6 {
			t.Fatalf("reported %d faults for 6 rejections", sink.n)
		}
	})
	t.Run("truncated_and_overlong", func(t *testing.T) {
		sink := &sinkCount{}
		width := bitio.WidthFor(100)
		for cut := 0; cut < width; cut++ {
			if _, ok := AsUint(corrupt(33, width, cut), 100, sink); ok {
				t.Errorf("truncation at bit %d accepted", cut)
			}
		}
		if _, ok := AsUint(corrupt(33, width, width+1), 100, sink); ok {
			t.Error("overlong payload accepted")
		}
		if sink.n != width+1 {
			t.Fatalf("reported %d faults for %d rejections", sink.n, width+1)
		}
	})
	t.Run("no_bound", func(t *testing.T) {
		// WidthFor(bound) is 0 for bound ≤ 1: the value is the empty field.
		sink := &sinkCount{}
		for _, bound := range []int{0, -3} {
			if got, ok := AsUint(corrupt(0, 0, 0), bound, sink); !ok || got != 0 {
				t.Errorf("bound %d: empty payload got %d, %v", bound, got, ok)
			}
			if got, ok := AsUint(UintPayload{Value: 99}, bound, sink); !ok || got != 99 {
				t.Errorf("bound %d: clean 99 got %d, %v", bound, got, ok)
			}
		}
		if sink.n != 0 {
			t.Fatalf("accepted payloads reported %d faults", sink.n)
		}
	})
	t.Run("nil_sink", func(t *testing.T) {
		if _, ok := AsUint(corrupt(33, 7, 3), 100, nil); ok {
			t.Fatal("truncated payload accepted with a nil sink")
		}
	})
	t.Run("other_kind_skipped", func(t *testing.T) {
		sink := &sinkCount{}
		if _, ok := AsUint(VarintPayload{Value: 3}, 10, sink); ok || sink.n != 0 {
			t.Fatalf("another kind: accepted %v, reported %d", ok, sink.n)
		}
	})
}

// FuzzAsUint drives AsUint with arbitrary corrupted bits and bounds. It
// must not panic; a rejected payload is reported exactly once; an accepted
// one used exactly WidthFor(bound) bits, lies below a positive bound, and
// reads back unchanged as a clean payload of that width.
func FuzzAsUint(f *testing.F) {
	f.Add([]byte{0xD0}, uint16(8), int32(10))
	f.Add([]byte{0x00, 0x00}, uint16(16), int32(1))
	f.Add([]byte{0xFF, 0xFF}, uint16(11), int32(4096))
	f.Add([]byte{}, uint16(0), int32(0))
	f.Add([]byte{0x80}, uint16(1), int32(-5))
	f.Fuzz(func(t *testing.T, data []byte, nbitRaw uint16, boundRaw int32) {
		bound := int(boundRaw % (1 << 20))
		nbit := min(int(nbitRaw), 8*len(data))
		width := bitio.WidthFor(bound)
		sink := &sinkCount{}
		x, ok := AsUint(CorruptPayload{Bits: data, NBit: nbit}, bound, sink)
		if !ok {
			if sink.n != 1 {
				t.Fatalf("rejection reported %d times", sink.n)
			}
			return
		}
		if sink.n != 0 || nbit != width || x < 0 || (bound > 0 && x >= bound) {
			t.Fatalf("accepted %d from %d bits at bound %d (width %d, %d reports)", x, nbit, bound, width, sink.n)
		}
		if want := int(bitio.NewReader(data, nbit).ReadUint(width)); x != want {
			t.Fatalf("accepted %d, the bits read %d", x, want)
		}
		if y, ok := AsUint(UintPayload{Value: uint64(x), Width: width}, bound, sink); !ok || y != x {
			t.Fatalf("clean re-send of %d read %d, %v", x, y, ok)
		}
	})
}
