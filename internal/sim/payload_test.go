package sim

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// BitsetPayload, ListPayload and Composite are test traffic: the engine
// goldens (golden_test.go, gather_test.go, workers_golden_test.go) send
// them so that their messages vary in size and shape. No algorithm sends
// them.

// BitsetPayload is a characteristic-vector set message over a universe.
type BitsetPayload struct {
	Set      []int
	Universe int
}

// EncodeBits implements Payload.
func (p BitsetPayload) EncodeBits(w *bitio.Writer) { w.WriteBitset(p.Set, p.Universe) }

// ListPayload encodes a list of values each of fixed width, preceded by a
// varint length (the "send the colors" encoding from Lemma 3.6).
type ListPayload struct {
	Values []int
	Width  int
}

// EncodeBits implements Payload.
func (p ListPayload) EncodeBits(w *bitio.Writer) {
	w.WriteVarint(uint64(len(p.Values)))
	for _, v := range p.Values {
		w.WriteUint(uint64(v), p.Width)
	}
}

// Composite concatenates several payloads into one message.
type Composite []Payload

// EncodeBits implements Payload.
func (c Composite) EncodeBits(w *bitio.Writer) {
	for _, p := range c {
		p.EncodeBits(w)
	}
}

func encBits(p Payload) int {
	w := bitio.NewWriter()
	p.EncodeBits(w)
	return w.Len()
}

func TestPayloadSizes(t *testing.T) {
	if got := encBits(UintPayload{Value: 5, Width: 7}); got != 7 {
		t.Fatalf("uint payload %d bits", got)
	}
	// Varint 0 → gamma(1) → 1 bit.
	if got := encBits(VarintPayload{Value: 0}); got != 1 {
		t.Fatalf("varint payload %d bits", got)
	}
	if got := encBits(BitsetPayload{Set: []int{1, 3}, Universe: 10}); got != 10 {
		t.Fatalf("bitset payload %d bits", got)
	}
	// ListPayload: varint length + fixed-width entries.
	lp := ListPayload{Values: []int{1, 2, 3}, Width: 4}
	lenBits := encBits(VarintPayload{Value: 3})
	if got := encBits(lp); got != lenBits+3*4 {
		t.Fatalf("list payload %d bits, want %d", got, lenBits+3*4)
	}
	comp := Composite{UintPayload{Value: 1, Width: 2}, VarintPayload{Value: 0}}
	if got := encBits(comp); got != 3 {
		t.Fatalf("composite %d bits", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Rounds: 2, Messages: 10, TotalBits: 100, MaxMessageBits: 7, RoundMaxBits: []int{7, 6}}
	b := Stats{Rounds: 3, Messages: 1, TotalBits: 11, MaxMessageBits: 9, RoundMaxBits: []int{9}}
	c := a.Add(b)
	if c.Rounds != 5 || c.Messages != 11 || c.TotalBits != 111 || c.MaxMessageBits != 9 {
		t.Fatalf("%+v", c)
	}
	if len(c.RoundMaxBits) != 3 {
		t.Fatalf("history %v", c.RoundMaxBits)
	}
}

func TestEngineAccessorsAndWorkers(t *testing.T) {
	g := graph.Ring(12)
	e := NewEngine(g)
	if e.Graph() != g {
		t.Fatal("Graph accessor wrong")
	}
	e.SetWorkers(0) // clamps to 1
	a := newFlood(12)
	stats, err := e.Run(a, 50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds with sequential workers")
	}
	for v := 0; v < 12; v++ {
		if a.min[v] != 0 {
			t.Fatal("sequential execution incorrect")
		}
	}
}

func TestErrBandwidthMessage(t *testing.T) {
	e := &ErrBandwidth{Round: 3, From: 1, To: 2, Bits: 99, Limit: 10}
	want := "sim: round 3 message 1->2 is 99 bits, exceeds bandwidth 10"
	if e.Error() != want {
		t.Fatalf("got %q", e.Error())
	}
}

func TestManyWorkersClamped(t *testing.T) {
	g := graph.Path(3)
	e := NewEngine(g)
	e.SetWorkers(1000) // more workers than nodes
	a := newFlood(3)
	if _, err := e.Run(a, 20); err != nil {
		t.Fatal(err)
	}
	if a.min[2] != 0 {
		t.Fatal("oversubscribed pool produced wrong result")
	}
}
