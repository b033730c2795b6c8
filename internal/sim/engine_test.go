package sim

import (
	"errors"
	"fmt"
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
	e.Faults = drops(func(round, from, to int) bool { return true })
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

func TestValidateAcceptsLegalTraffic(t *testing.T) {
	g := graph.GNP(60, 0.1, 5)
	e := NewEngine(g)
	if _, err := e.Run(newFlood(g.N()), 100); err != nil {
		t.Fatalf("legal broadcast traffic rejected: %v", err)
	}
}

func TestFaultAccountingExcludesDrops(t *testing.T) {
	g := graph.Clique(6)
	// Drop everything node 0 sends: 5 of the 30 wires per round.
	fromZero := func(round, from, to int) bool { return from == 0 }
	runWith := func(workers int) Stats {
		e := NewEngine(g)
		if workers > 0 {
			e.SetWorkers(workers)
		}
		e.Faults = drops(fromZero)
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
	if got := stats.TotalFaults().Dropped; got != int64(stats.Rounds)*5 {
		t.Fatalf("ledger dropped %d wires over %d rounds, want 5 per round", got, stats.Rounds)
	}
	// TotalBits must equal the sum of per-wire sizes of delivered messages
	// only: cross-check against the seed-semantics reference engine run
	// under the identical fault pattern. The reference keeps no ledger.
	ref, err := referenceRun(g, newFlood(6), 30, fromZero)
	if err != nil {
		t.Fatal(err)
	}
	unledgered := stats
	unledgered.Faults = nil
	if !reflect.DeepEqual(ref, unledgered) {
		t.Fatalf("faulted stats diverge from reference:\n want %+v\n  got %+v", ref, unledgered)
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

// oversizedFrom has one node broadcast an 8-bit message in round 0; every
// other node stays silent.
type oversizedFrom struct{ from int }

func (a oversizedFrom) Outbox(v int, out *Outbox) {
	if v == a.from {
		out.Broadcast(UintPayload{Value: 1, Width: 8})
	}
}
func (oversizedFrom) Inbox(int, []Received) {}
func (oversizedFrom) Done() bool            { return false }

// TestBandwidthViolationNamesItsWire pins the receiver a bandwidth error
// names: the sender's first neighbor, and under a fault model its first
// wire that was not dropped.
func TestBandwidthViolationNamesItsWire(t *testing.T) {
	g := graph.Clique(6) // node 3's neighbors are 0, 1, 2, 4, 5
	for _, tc := range []struct {
		name   string
		faults FaultModel
		want   int
	}{
		{"broadcast", nil, 0},
		{"broadcast-first-wires-dropped", drops(func(_, from, to int) bool { return from == 3 && to < 2 }), 2},
	} {
		for _, workers := range []int{1, 2, 4} {
			e := NewEngineWith(g, Options{Workers: workers, Bandwidth: 4, Faults: tc.faults})
			_, err := e.Run(oversizedFrom{from: 3}, 2)
			var be *ErrBandwidth
			if !errors.As(err, &be) {
				t.Fatalf("%s workers=%d: got %v, want an ErrBandwidth", tc.name, workers, err)
			}
			if be.Round != 0 || be.From != 3 || be.To != tc.want || be.Bits != 8 {
				t.Errorf("%s workers=%d: violation %+v, want round 0, 3->%d, 8 bits", tc.name, workers, *be, tc.want)
			}
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
// shard 0, which the goroutine calling Run executes itself.
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

// inboxPanic panics in the Inbox of every node from `from` on.
type inboxPanic struct {
	floodAlg
	from int
}

func (a *inboxPanic) Inbox(v int, in []Received) {
	if v >= a.from {
		panic(fmt.Sprintf("inbox %d", v))
	}
	a.floodAlg.Inbox(v, in)
}

// broadcastTwice has node 63 call Broadcast a second time in round 2.
type broadcastTwice struct {
	floodAlg
	round int
}

func (a *broadcastTwice) Outbox(v int, out *Outbox) {
	a.floodAlg.Outbox(v, out)
	if v == 63 && a.round == 3 { // Done has run three times by round 2
		out.Broadcast(UintPayload{Value: 1, Width: 1})
	}
}
func (a *broadcastTwice) Done() bool { a.round++; return a.floodAlg.Done() }

// TestWorkerPanicRecoverable pins that a panic on a worker shard, whose
// goroutine is not the caller's, reaches the caller of Run as the first
// panic in shard order, where it can be recovered, and that the engine
// then runs to the same Stats as a fresh one with no goroutine left
// behind. Node 63 of the ring lives on the last shard at every worker
// count; panicking in Inbox from node 40 on makes several shards panic at
// once, and a second Broadcast makes the engine's own collect phase panic.
func TestWorkerPanicRecoverable(t *testing.T) {
	g := graph.Ring(64)
	for _, workers := range []int{1, 2, 4, 7} {
		want, err := NewEngineWith(g, Options{Workers: workers}).Run(newFlood(g.N()), 100)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		eng := NewEngineWith(g, Options{Workers: workers})
		var got Stats
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, tc := range []struct {
				alg  Algorithm
				want string
			}{
				{&inboxPanic{floodAlg: *newFlood(g.N()), from: 63}, "inbox 63"},
				{&inboxPanic{floodAlg: *newFlood(g.N()), from: 40}, "inbox 40"},
				{&broadcastTwice{floodAlg: *newFlood(g.N())}, "sim: round 2: node 63 called Broadcast 2 times; a node sends at most one message per round"},
			} {
				func() {
					defer func() {
						if r := recover(); r != tc.want {
							t.Errorf("workers=%d: recovered %v, want %q", workers, r, tc.want)
						}
					}()
					eng.Run(tc.alg, 100)
				}()
			}
			got, err = eng.Run(newFlood(g.N()), 100)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: engine deadlocked after a worker panic", workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: run after panics diverges:\n want %+v\n  got %+v", workers, want, got)
		}
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 100 {
				t.Fatalf("workers=%d: %d goroutines after the runs, %d before", workers, runtime.NumGoroutine(), before)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// silentSenders broadcasts a nil payload from node 0, a payload from node
// 3, which has no neighbors, and a 5-bit payload from node 1, in round 0
// only, and counts the messages that arrive from any other node than 1.
type silentSenders struct {
	round int
	stray atomic.Int64
}

func (a *silentSenders) Outbox(v int, out *Outbox) {
	if a.round != 1 {
		return
	}
	switch v {
	case 0:
		out.Broadcast(nil)
	case 1:
		out.Broadcast(UintPayload{Value: 1, Width: 5})
	case 3:
		out.Broadcast(UintPayload{Value: 1, Width: 9})
	}
}
func (a *silentSenders) Inbox(v int, in []Received) {
	for _, m := range in {
		if m.From != 1 {
			a.stray.Add(1)
		}
	}
}
func (a *silentSenders) Done() bool { a.round++; return a.round > 1 }

// TestSilentSenders pins that a nil payload and a node without neighbors
// send nothing: only node 1's two wires are delivered and accounted.
func TestSilentSenders(t *testing.T) {
	b := graph.NewBuilder(4) // path 0-1-2, node 3 isolated
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	for _, workers := range []int{1, 2, 4} {
		a := &silentSenders{}
		stats, err := NewEngineWith(g, Options{Workers: workers}).Run(a, 3)
		if err != nil {
			t.Fatal(err)
		}
		if n := a.stray.Load(); n != 0 {
			t.Errorf("workers=%d: %d messages from silent nodes delivered", workers, n)
		}
		want := Stats{Rounds: 1, Messages: 2, TotalBits: 10, MaxMessageBits: 5, RoundMaxBits: []int{5}}
		if !reflect.DeepEqual(stats, want) {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, stats, want)
		}
	}
}
