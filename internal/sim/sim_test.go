package sim

import (
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// floodAlg floods the minimum id through the network: each node broadcasts
// the smallest id it has seen; terminates after diameter+1 rounds of no
// change (here driven by a fixed round budget chosen by the test).
type floodAlg struct {
	min     []int64
	changed int64
	started bool
}

func newFlood(n int) *floodAlg {
	a := &floodAlg{min: make([]int64, n)}
	for v := range a.min {
		a.min[v] = int64(v)
	}
	return a
}

func (a *floodAlg) Outbox(v int, out *Outbox) {
	out.Broadcast(VarintPayload{Value: uint64(a.min[v])})
}

func (a *floodAlg) Inbox(v int, in []Received) {
	for _, m := range in {
		got := int64(m.Payload.(VarintPayload).Value)
		if got < a.min[v] {
			a.min[v] = got
			atomic.AddInt64(&a.changed, 1)
		}
	}
}

func (a *floodAlg) Done() bool {
	if !a.started {
		a.started = true
		return false
	}
	if atomic.LoadInt64(&a.changed) == 0 {
		return true
	}
	atomic.StoreInt64(&a.changed, 0)
	return false
}

func TestFloodConverges(t *testing.T) {
	g := graph.Ring(20)
	e := NewEngine(g)
	a := newFlood(20)
	stats, err := e.Run(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		if a.min[v] != 0 {
			t.Fatalf("node %d has min %d", v, a.min[v])
		}
	}
	// Ring of 20 has radius 10 from vertex 0; flooding needs ~10 rounds plus
	// one quiet round.
	if stats.Rounds < 10 || stats.Rounds > 13 {
		t.Fatalf("rounds = %d, want ≈11", stats.Rounds)
	}
}

func TestMessageAccounting(t *testing.T) {
	g := graph.Clique(4)
	e := NewEngine(g)
	a := newFlood(4)
	stats, err := e.Run(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Every node broadcasts to 3 neighbors every round.
	if stats.Messages != int64(stats.Rounds*4*3) {
		t.Fatalf("messages = %d rounds=%d", stats.Messages, stats.Rounds)
	}
	if stats.MaxMessageBits == 0 || stats.TotalBits == 0 {
		t.Fatal("bit accounting missing")
	}
	if len(stats.RoundMaxBits) != stats.Rounds {
		t.Fatalf("round history len %d", len(stats.RoundMaxBits))
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.Ring(4)
	e := NewEngine(g)
	e.Bandwidth = 2 // varint of value 3 needs 5 bits
	a := newFlood(4)
	_, err := e.Run(a, 10)
	if err == nil {
		t.Fatal("expected bandwidth violation")
	}
	if _, ok := err.(*ErrBandwidth); !ok {
		t.Fatalf("got %T: %v", err, err)
	}
}

func TestNonTermination(t *testing.T) {
	g := graph.Ring(4)
	e := NewEngine(g)
	a := &neverDone{}
	_, err := e.Run(a, 5)
	if err == nil {
		t.Fatal("expected non-termination error")
	}
}

type neverDone struct{}

func (a *neverDone) Outbox(v int, out *Outbox)  {}
func (a *neverDone) Inbox(v int, in []Received) {}
func (a *neverDone) Done() bool                 { return false }

func TestFaultInjectionDropsMessages(t *testing.T) {
	g := graph.Ring(10)
	e := NewEngine(g)
	// Cut node 0 off entirely: the flood of id 0 can never escape.
	e.Faults = drops(func(round, from, to int) bool { return from == 0 || to == 0 })
	a := newFlood(10)
	if _, err := e.Run(a, 50); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 10; v++ {
		if a.min[v] == 0 {
			t.Fatalf("node %d learned id 0 through a cut link", v)
		}
	}
	// Node 1 should have learned the minimum of the rest (1 itself).
	if a.min[1] != 1 {
		t.Fatalf("min[1]=%d", a.min[1])
	}
}

func TestFaultInjectionRoundScoped(t *testing.T) {
	g := graph.Path(3)
	e := NewEngine(g)
	// Drop node 0's outgoing messages in round 0 only; other traffic keeps
	// the flood alive, and id 0 propagates from round 1 on.
	e.Faults = drops(func(round, from, to int) bool { return round == 0 && from == 0 })
	a := newFlood(3)
	if _, err := e.Run(a, 20); err != nil {
		t.Fatal(err)
	}
	if a.min[2] != 0 {
		t.Fatalf("min[2]=%d; round-scoped fault must not block later rounds", a.min[2])
	}
}

func TestParallelDeterminism(t *testing.T) {
	g := graph.GNP(200, 0.05, 9)
	run := func() []int64 {
		a := newFlood(200)
		if _, err := NewEngine(g).Run(a, 500); err != nil {
			t.Fatal(err)
		}
		return a.min
	}
	r1 := run()
	r2 := run()
	for v := range r1 {
		if r1[v] != r2[v] {
			t.Fatalf("nondeterministic result at node %d", v)
		}
	}
}
