package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bitio"
	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/sim"
)

// noFaults is a fault model that delivers every wire untouched. Installing
// it makes the engine account and deliver wire by wire, asking the model
// twice per wire, and turns the fault ledger on.
type noFaults struct{}

func (noFaults) Wire(round, from, to int) (sim.FaultOutcome, uint64) { return sim.FaultNone, 0 }

// inboxDigest has each node, in each round, broadcast one message whose
// kind depends on the node and the round — a varint, a composite of a
// varint and a bitset, a fixed-width integer, a list — or fall silent
// after sending in the round before. Each node folds every message it
// receives, (v, from, encoded payload, whether it arrived as a
// CorruptPayload), into its own FNV-1a hash, so any change of content or
// order changes the digest.
type inboxDigest struct {
	round int
	h     []uint64
}

func newInboxDigest(g *graph.Graph) *inboxDigest {
	a := &inboxDigest{h: make([]uint64, g.N())}
	for v := range a.h {
		a.h[v] = 14695981039346656037
	}
	return a
}

func (a *inboxDigest) Outbox(v int, out *sim.Outbox) {
	switch (v + a.round) % 6 {
	case 0: // silent
	case 1:
		out.Broadcast(sim.VarintPayload{Value: uint64(v*a.round + 1)})
	case 2:
		out.Broadcast(sim.Composite{sim.VarintPayload{Value: uint64(v)}, sim.BitsetPayload{Set: []int{v % 5, 6}, Universe: 7}})
	case 3:
		out.Broadcast(sim.UintPayload{Value: uint64(v % 64), Width: 6})
	case 4:
		out.Broadcast(sim.ListPayload{Values: []int{v, a.round}, Width: 12})
	case 5:
		out.Broadcast(sim.UintPayload{Value: uint64(v % 8), Width: 3})
	}
}

func (a *inboxDigest) Inbox(v int, in []sim.Received) {
	w := bitio.NewWriter()
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			a.h[v] ^= x & 0xff
			a.h[v] *= 1099511628211
			x >>= 8
		}
	}
	for _, m := range in {
		w.Reset()
		m.Payload.EncodeBits(w)
		_, corrupt := m.Payload.(sim.CorruptPayload)
		mix(uint64(v))
		mix(uint64(m.From))
		mix(uint64(w.Len()))
		if corrupt {
			mix(1)
		}
		for _, b := range w.Bytes() {
			mix(uint64(b))
		}
	}
}

func (a *inboxDigest) Done() bool {
	a.round++
	return a.round > 9
}

// TestNoOpFaultModelChangesOnlyLedger runs inboxDigest's traffic and
// DegreeLuby once fault-free and once under a fault model that faults
// nothing, at every golden worker count. Every inbox, every coloring and
// the Stats apart from the fault ledger must agree — with each other and
// with the one-worker fault-free run — and the ledger must be all zeros.
func TestNoOpFaultModelChangesOnlyLedger(t *testing.T) {
	g := graph.GNP(240, 0.05, 13)
	luby := graph.PreferentialAttachment(300, 3, 21)
	var wantInbox []uint64
	var wantMixed sim.Stats
	var wantColors []int
	var wantLuby sim.Stats
	for _, w := range goldenWorkers {
		for _, faults := range []sim.FaultModel{nil, noFaults{}} {
			tag := fmt.Sprintf("workers=%d model=%v", w, faults != nil)
			alg := newInboxDigest(g)
			stats, err := sim.NewEngineWith(g, sim.Options{Workers: w, Faults: faults}).Run(alg, 12)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			stats = withoutLedger(t, tag, stats, faults != nil)
			phi, lstats, err := baseline.DegreeLuby(sim.NewEngineWith(luby, sim.Options{Workers: w, Faults: faults}), luby, 5)
			if err != nil {
				t.Fatalf("%s: DegreeLuby: %v", tag, err)
			}
			lstats = withoutLedger(t, tag, lstats, faults != nil)
			if wantInbox == nil {
				wantInbox, wantMixed, wantColors, wantLuby = alg.h, stats, []int(phi), lstats
				continue
			}
			if !reflect.DeepEqual(alg.h, wantInbox) {
				t.Errorf("%s: inbox digests differ from the one-worker fault-free run", tag)
			}
			if !reflect.DeepEqual(stats, wantMixed) {
				t.Errorf("%s: mixed Stats differ:\n got %+v\nwant %+v", tag, stats, wantMixed)
			}
			if !reflect.DeepEqual([]int(phi), wantColors) {
				t.Errorf("%s: DegreeLuby coloring differs", tag)
			}
			if !reflect.DeepEqual(lstats, wantLuby) {
				t.Errorf("%s: DegreeLuby Stats differ:\n got %+v\nwant %+v", tag, lstats, wantLuby)
			}
		}
	}
}

// digestFaultedInbox pins every inbox of inboxDigest's traffic under a
// drop+flip model: receiver, sender, encoded payload (a CorruptPayload's
// damaged bits, marked as such) and the Stats with the fault ledger;
// recorded at a9c9a87, where the engine still kept per-node send lists.
const digestFaultedInbox = "1eb6f07cfd908dd4"

// TestFaultedInboxDigest checks faulted delivery at every golden worker
// count against digestFaultedInbox: which wires a drop removes, which
// payloads a corruption replaces and which bit it flips.
func TestFaultedInboxDigest(t *testing.T) {
	g := graph.GNP(240, 0.05, 13)
	model := chaos.Compose(chaos.Drop(17, 0.15), chaos.Flip(19, 0.2))
	for _, w := range goldenWorkers {
		alg := newInboxDigest(g)
		stats, err := sim.NewEngineWith(g, sim.Options{Workers: w, Faults: model}).Run(alg, 12)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if f := stats.TotalFaults(); f.Dropped == 0 || f.Corrupted == 0 {
			t.Fatalf("workers=%d: model dropped %d and corrupted %d wires, want both > 0", w, f.Dropped, f.Corrupted)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", w), digest(alg.h, stats), digestFaultedInbox)
	}
}

// sparseRounds sends inboxDigest's message kinds under each kind of
// round gather treats apart: rounds in which one block of six consecutive
// nodes in eight sends (every kind) or no node does, a round in which
// every node sends, and a round in which all nodes but sparseSilent send,
// the fullest round that must still skip a silent sender.
type sparseRounds struct{ *inboxDigest }

// sparseSilent sends in the every-node round 3 and falls silent in the
// all-but-one round 4.
const sparseSilent = 101

func (a sparseRounds) Outbox(v int, out *sim.Outbox) {
	switch a.round {
	case 3, 4:
		if a.round == 4 && v == sparseSilent {
			return
		}
		if (v+a.round)%6 == 0 { // inboxDigest's silent kind
			out.Broadcast(sim.VarintPayload{Value: uint64(v)})
			return
		}
		a.inboxDigest.Outbox(v, out)
	case 6: // no node sends
	default:
		if (v/6+a.round)%8 == 0 {
			a.inboxDigest.Outbox(v, out)
		}
	}
}

// digestSparseInbox pins every inbox and the Stats of sparseRounds'
// traffic; recorded at a9c9a87, where the engine still kept per-node send
// lists.
const digestSparseInbox = "70a61d6196cae77b"

// TestSparseInboxDigest checks gather delivery at every golden worker
// count in rounds where few, all, all but one and no nodes send.
func TestSparseInboxDigest(t *testing.T) {
	g := graph.GNP(240, 0.05, 13)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			t.Fatalf("node %d is isolated, so round 3 would not have every node send", v)
		}
	}
	for _, w := range goldenWorkers {
		alg := sparseRounds{newInboxDigest(g)}
		stats, err := sim.NewEngineWith(g, sim.Options{Workers: w}).Run(alg, 12)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", w), digest(alg.h, stats), digestSparseInbox)
	}
}

// withoutLedger checks that a run under noFaults faulted nothing and
// returns its Stats without the ledger, which only a fault model turns on.
func withoutLedger(t *testing.T, tag string, s sim.Stats, modeled bool) sim.Stats {
	t.Helper()
	if !modeled {
		return s
	}
	if len(s.Faults) != s.Rounds || s.TotalFaults() != (sim.RoundFaults{}) {
		t.Errorf("%s: ledger %+v over %d rounds, want %d empty entries", tag, s.Faults, s.Rounds, s.Rounds)
	}
	s.Faults = nil
	return s
}
