package sim

import (
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// referenceRun replicates the seed engine's accounting semantics exactly:
// fully serial execution, one EncodeBits call per wire (no encode-once
// caching), fresh writer per message, per-receiver inbox slices. It is the
// golden model the optimized engine must match bit-for-bit on Stats.
func referenceRun(g *graph.Graph, alg Algorithm, maxRounds int, fault func(round, from, to int) bool) (Stats, error) {
	n := g.N()
	var stats Stats
	outboxes := make([]Outbox, n)
	inboxes := make([][]Received, n)
	for round := 0; round < maxRounds; round++ {
		if alg.Done() {
			return stats, nil
		}
		for v := 0; v < n; v++ {
			outboxes[v] = Outbox{}
			alg.Outbox(v, &outboxes[v])
		}
		roundMax := 0
		for v := 0; v < n; v++ {
			inboxes[v] = inboxes[v][:0]
		}
		for v := 0; v < n; v++ {
			p := outboxes[v].payload
			if p == nil {
				continue
			}
			// One wire per neighbor, as the seed Outbox appended one send
			// per neighbor.
			for _, to := range g.Neighbors(v) {
				if fault != nil && fault(round, v, int(to)) {
					continue
				}
				stats.Messages++
				w := bitio.NewWriter()
				p.EncodeBits(w)
				bits := w.Len()
				stats.TotalBits += int64(bits)
				if bits > roundMax {
					roundMax = bits
				}
				if bits > stats.MaxMessageBits {
					stats.MaxMessageBits = bits
				}
				inboxes[to] = append(inboxes[to], Received{From: v, Payload: p})
			}
		}
		stats.RoundMaxBits = append(stats.RoundMaxBits, roundMax)
		for v := 0; v < n; v++ {
			alg.Inbox(v, inboxes[v])
		}
		stats.Rounds++
	}
	return stats, nil
}

// mixedAlg varies each node's message by round: a composite of a varint
// and a bitset, a fixed-width integer, a list, or silence. The seen sums
// are weighted by inbox position, so any reordering of an inbox changes
// them.
type mixedAlg struct {
	n     int
	round int
	seen  []int64
}

func newMixed(n int) *mixedAlg { return &mixedAlg{n: n, seen: make([]int64, n)} }

func (a *mixedAlg) Outbox(v int, out *Outbox) {
	switch (v + a.round) % 4 {
	case 0:
		out.Broadcast(Composite{VarintPayload{Value: uint64(v + a.round)}, BitsetPayload{Set: []int{v % 7}, Universe: 7}})
	case 1:
		out.Broadcast(UintPayload{Value: uint64(v % 16), Width: 4})
	case 2:
		out.Broadcast(ListPayload{Values: []int{v, a.round}, Width: 8})
	}
}

func (a *mixedAlg) Inbox(v int, in []Received) {
	for i, m := range in {
		a.seen[v] += int64(m.From+1) * int64(i+1)
	}
}

func (a *mixedAlg) Done() bool {
	a.round++
	return a.round > 8
}

// TestGoldenAccounting pins the optimized engine's Stats to the seed
// engine's accounting, byte for byte, across workloads, worker counts, and
// drop patterns on a fixed-seed graph. The engine drops through a fault
// model, whose ledger the seed engine does not keep, so the comparison
// leaves the ledger out.
func TestGoldenAccounting(t *testing.T) {
	g := graph.GNP(150, 0.08, 42)
	faults := map[string]func(round, from, to int) bool{
		"nofault":  nil,
		"cutnode":  func(round, from, to int) bool { return from == 3 || to == 3 },
		"parity":   func(round, from, to int) bool { return (round+from+to)%5 == 0 },
		"allfault": func(round, from, to int) bool { return true },
	}
	for name, fault := range faults {
		for _, workers := range []int{1, 4, 0} {
			want, err := referenceRun(g, newMixed(g.N()), 12, fault)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(g)
			if workers > 0 {
				e.SetWorkers(workers)
			}
			if fault != nil {
				e.Faults = drops(fault)
			}
			aNew := newMixed(g.N())
			got, err := e.Run(aNew, 12)
			if err != nil {
				t.Fatal(err)
			}
			got.Faults = nil
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s workers=%d: stats diverge from seed reference:\n want %+v\n  got %+v",
					name, workers, want, got)
			}
			// The algorithm state must match too: same messages delivered
			// in the same per-inbox order.
			ref := newMixed(g.N())
			if _, err := referenceRun(g, ref, 12, fault); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.seen, aNew.seen) {
				t.Errorf("%s workers=%d: delivered messages diverge", name, workers)
			}
		}
	}
}

// TestGoldenFlood cross-checks the plain broadcast workload used by the
// benchmarks.
func TestGoldenFlood(t *testing.T) {
	g := graph.RandomRegular(128, 8, 7)
	want, err := referenceRun(g, newFlood(g.N()), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(g).Run(newFlood(g.N()), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stats diverge:\n want %+v\n  got %+v", want, got)
	}
}
