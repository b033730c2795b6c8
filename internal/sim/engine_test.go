package sim

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// talkThenHush broadcasts for `talk` rounds and then goes silent forever.
// Done never reports termination, so only quiescence can end the run.
type talkThenHush struct {
	talk  int
	round int
}

func (a *talkThenHush) Outbox(v int, out *Outbox) {
	if a.round <= a.talk {
		out.Broadcast(UintPayload{Value: 1, Width: 1})
	}
}
func (a *talkThenHush) Inbox(v int, in []Received) {}
func (a *talkThenHush) Done() bool                 { a.round++; return false }
func (a *talkThenHush) Quiesced() bool             { return true }

// hushNoQuiesce is the same protocol without the Quiescent extension.
type hushNoQuiesce struct{ talkThenHush }

func (a *hushNoQuiesce) Quiesced() {} // shadows with wrong signature: not Quiescent

func TestQuiescenceStopsEarly(t *testing.T) {
	g := graph.Ring(8)
	e := NewEngine(g)
	a := &talkThenHush{talk: 3}
	stats, err := e.Run(a, 1000)
	if err != nil {
		t.Fatalf("quiescent algorithm must terminate cleanly, got %v", err)
	}
	// Rounds 1..3 talk (Done is polled before each round, so round numbers
	// are 1-based here); round 4 is the first silent round and triggers
	// quiescence.
	if stats.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4 (3 talking + 1 silent)", stats.Rounds)
	}
	if stats.Messages != int64(3*8*2) {
		t.Fatalf("messages = %d", stats.Messages)
	}
}

func TestNoQuiescenceWithoutOptIn(t *testing.T) {
	g := graph.Ring(8)
	e := NewEngine(g)
	a := &hushNoQuiesce{talkThenHush{talk: 3}}
	if _, ok := Algorithm(a).(Quiescent); ok {
		t.Fatal("test setup: alg must not implement Quiescent")
	}
	_, err := e.Run(a, 50)
	if err == nil || !strings.Contains(err.Error(), "did not terminate") {
		t.Fatalf("non-quiescent algorithm must hit the round budget, got %v", err)
	}
}

func TestQuiescenceAllMessagesDropped(t *testing.T) {
	// A round where everything is sent but everything is dropped counts as
	// quiescent: nothing was delivered.
	g := graph.Ring(8)
	e := NewEngine(g)
	e.Fault = func(round, from, to int) bool { return true }
	a := &talkThenHush{talk: 1000}
	stats, err := e.Run(a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (first fully-dropped round quiesces)", stats.Rounds)
	}
	if stats.Messages != 0 {
		t.Fatalf("dropped messages counted: %d", stats.Messages)
	}
}

// strayAlg sends to a fixed target whether or not it is adjacent.
type strayAlg struct {
	target int
	done   bool
}

func (a *strayAlg) Outbox(v int, out *Outbox) {
	if v == 0 {
		out.SendTo(a.target, UintPayload{Value: 1, Width: 1})
	}
}
func (a *strayAlg) Inbox(v int, in []Received) {}
func (a *strayAlg) Done() bool                 { d := a.done; a.done = true; return d }

func TestValidateCatchesNonNeighborSend(t *testing.T) {
	g := graph.Path(5) // 0-1-2-3-4: node 0 is not adjacent to 3
	e := NewEngine(g)
	e.Validate = true
	_, err := e.Run(&strayAlg{target: 3}, 10)
	if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("want non-neighbor validation error, got %v", err)
	}
}

func TestValidateCatchesOutOfRangeSend(t *testing.T) {
	g := graph.Path(5)
	e := NewEngine(g)
	e.Validate = true
	_, err := e.Run(&strayAlg{target: 99}, 10)
	if err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want out-of-range validation error, got %v", err)
	}
}

func TestValidateAcceptsLegalTraffic(t *testing.T) {
	g := graph.GNP(60, 0.1, 5)
	e := NewEngine(g)
	e.Validate = true
	if _, err := e.Run(newFlood(g.N()), 100); err != nil {
		t.Fatalf("legal broadcast traffic rejected: %v", err)
	}
}

func TestFaultAccountingExcludesDrops(t *testing.T) {
	g := graph.Clique(6)
	// Drop everything node 0 sends: 5 of the 30 wires per round.
	runWith := func(workers int) Stats {
		e := NewEngine(g)
		if workers > 0 {
			e.SetWorkers(workers)
		}
		e.Fault = func(round, from, to int) bool { return from == 0 }
		a := newFlood(6)
		stats, err := e.Run(a, 30)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	stats := runWith(0)
	perRound := int64(6*5 - 5)
	if stats.Messages != int64(stats.Rounds)*perRound {
		t.Fatalf("messages = %d over %d rounds, want %d per round (drops must not count)",
			stats.Messages, stats.Rounds, perRound)
	}
	if len(stats.RoundMaxBits) != stats.Rounds {
		t.Fatalf("RoundMaxBits history has %d entries for %d rounds", len(stats.RoundMaxBits), stats.Rounds)
	}
	// TotalBits must equal the sum of per-wire sizes of delivered messages
	// only: cross-check against the seed-semantics reference engine run
	// under the identical fault pattern.
	ref, err := referenceRun(g, newFlood(6), 30, func(round, from, to int) bool { return from == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, stats) {
		t.Fatalf("faulted stats diverge from reference:\n want %+v\n  got %+v", ref, stats)
	}
	// Accounting under faults must be identical for any worker count.
	if s1 := runWith(1); !reflect.DeepEqual(s1, stats) {
		t.Fatalf("workers=1 stats diverge under faults:\n %+v\n %+v", s1, stats)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	g := graph.GNP(200, 0.05, 9)
	run := func(workers int) (Stats, []int64) {
		e := NewEngine(g)
		if workers > 0 {
			e.SetWorkers(workers)
		}
		a := newFlood(200)
		stats, err := e.Run(a, 500)
		if err != nil {
			t.Fatal(err)
		}
		return stats, a.min
	}
	baseStats, baseMin := run(0)
	for _, workers := range []int{1, 2, 3, 7} {
		stats, min := run(workers)
		if !reflect.DeepEqual(stats, baseStats) {
			t.Fatalf("workers=%d stats diverge:\n %+v\n %+v", workers, stats, baseStats)
		}
		if !reflect.DeepEqual(min, baseMin) {
			t.Fatalf("workers=%d algorithm output diverges", workers)
		}
	}
}

// orderAlg interleaves Broadcast and SendTo in one round to pin the
// same-sender delivery-order contract: send-call order, broadcast expanded
// at its call position.
type orderAlg struct {
	got  [][]uint64
	done bool
}

func (a *orderAlg) Outbox(v int, out *Outbox) {
	if v != 0 {
		return
	}
	out.Broadcast(UintPayload{Value: 1, Width: 8})
	out.SendTo(1, UintPayload{Value: 2, Width: 8})
	out.Broadcast(UintPayload{Value: 3, Width: 8})
}

func (a *orderAlg) Inbox(v int, in []Received) {
	for _, m := range in {
		a.got[v] = append(a.got[v], m.Payload.(UintPayload).Value)
	}
}
func (a *orderAlg) Done() bool { d := a.done; a.done = true; return d }

func TestSameSenderDeliveryOrder(t *testing.T) {
	g := graph.Clique(3)
	a := &orderAlg{got: make([][]uint64, 3)}
	if _, err := NewEngine(g).Run(a, 5); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 2, 3}; !reflect.DeepEqual(a.got[1], want) {
		t.Fatalf("node 1 inbox order = %v, want %v", a.got[1], want)
	}
	if want := []uint64{1, 3}; !reflect.DeepEqual(a.got[2], want) {
		t.Fatalf("node 2 inbox order = %v, want %v", a.got[2], want)
	}
}

func TestBandwidthDeterministicFirstViolation(t *testing.T) {
	// Every node broadcasts an oversized message; the reported violation
	// must be the globally first wire in sender order — node 0 to its first
	// neighbor — for every worker count.
	g := graph.GNP(64, 0.2, 3)
	for _, workers := range []int{0, 1, 3} {
		e := NewEngine(g)
		if workers > 0 {
			e.SetWorkers(workers)
		}
		e.Bandwidth = 2
		_, err := e.Run(newFlood(64), 10)
		be, ok := err.(*ErrBandwidth)
		if !ok {
			t.Fatalf("workers=%d: got %T: %v", workers, err, err)
		}
		// Expected first violation: smallest sender (in id order) whose
		// varint payload exceeds the bandwidth and that has a neighbor.
		first := -1
		for v := 0; v < 64; v++ {
			w := bitio.NewWriter()
			w.WriteVarint(uint64(v))
			if w.Len() > 2 && len(g.Neighbors(v)) > 0 {
				first = v
				break
			}
		}
		if be.From != first || be.To != int(g.Neighbors(first)[0]) || be.Round != 0 {
			t.Fatalf("workers=%d: violation %d->%d round %d, want %d->%d round 0",
				workers, be.From, be.To, be.Round, first, g.Neighbors(first)[0])
		}
	}
}

// TestBroadcastEncodeOnce verifies the encode-once contract: a broadcast
// payload's EncodeBits runs once per sender per round, not once per wire.
func TestBroadcastEncodeOnce(t *testing.T) {
	g := graph.Clique(16) // degree 15
	var calls int64
	a := &encodeCountAlg{calls: &calls}
	stats, err := NewEngine(g).Run(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 16 senders, 2 rounds of sending, one encode each.
	if got := atomic.LoadInt64(&calls); got != 16*2 {
		t.Fatalf("EncodeBits ran %d times, want %d (once per sender per round)", got, 16*2)
	}
	// Accounting still charges every wire.
	if want := int64(16 * 15 * 2); stats.Messages != want {
		t.Fatalf("messages = %d, want %d", stats.Messages, want)
	}
}

type encodeCountAlg struct {
	calls *int64
	round int
}

func (a *encodeCountAlg) Outbox(v int, out *Outbox) {
	if a.round <= 2 {
		out.Broadcast(tallyPayload{calls: a.calls})
	}
}
func (a *encodeCountAlg) Inbox(v int, in []Received) {}
func (a *encodeCountAlg) Done() bool                 { a.round++; return a.round > 2 }

type tallyPayload struct{ calls *int64 }

func (p tallyPayload) EncodeBits(w *bitio.Writer) {
	atomic.AddInt64(p.calls, 1)
	w.WriteUint(0, 8)
}

// panicAt panics in node 0's Outbox of the given round; node 0 belongs to
// shard 0, which the goroutine calling Run executes, so the panic unwinds
// Run while the other shards are still in the collect phase.
type panicAt struct {
	floodAlg
	round, at int
}

func (a *panicAt) Outbox(v int, out *Outbox) {
	if v == 0 && a.round == a.at {
		panic("injected")
	}
	a.floodAlg.Outbox(v, out)
}
func (a *panicAt) Done() bool { a.round++; return a.floodAlg.Done() }

// TestRunAfterPanic pins that a run unwound by a panic in a callback stops
// its shard goroutines and leaves the engine's barrier clean: the same
// engine then runs to the same Stats as a fresh one, and no goroutine is
// left behind. A dirty barrier deadlocks, so the runs happen on a helper
// goroutine the test waits for with a deadline.
func TestRunAfterPanic(t *testing.T) {
	g := graph.GNP(200, 0.05, 11)
	want, err := NewEngineWith(g, Options{Workers: 4}).Run(newFlood(g.N()), 50)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var got Stats
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng := NewEngineWith(g, Options{Workers: 4})
		for i := 0; i < 3; i++ {
			func() {
				defer func() {
					if r := recover(); r != "injected" {
						t.Errorf("recovered %v, want the injected panic", r)
					}
				}()
				eng.Run(&panicAt{floodAlg: *newFlood(g.N()), at: 2}, 50)
			}()
		}
		got, err = eng.Run(newFlood(g.N()), 50)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("engine deadlocked after panicked runs")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("run after panics diverges:\n want %+v\n  got %+v", want, got)
	}
	// Exited goroutines can take a moment to leave the count.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
