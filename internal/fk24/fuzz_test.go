package fk24

import (
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cover"
	"repro/internal/sim"
)

// FuzzDecodeFK24TypeMsg drives the hardened type-message decoder with
// arbitrary bit strings: decoding never panics, every accepted message
// has its initial color in range, and accepted messages re-encode/re-decode
// to the same value. algkit's FuzzReadList checks the list field.
func FuzzDecodeFK24TypeMsg(f *testing.F) {
	seed := func(m, space int, msg typeMsg) []byte {
		msg.mWidth = bitio.WidthFor(m)
		msg.spaceSize = space
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		return w.Bytes()
	}
	f.Add(seed(900, 4096, typeMsg{initColor: 123, list: []int{5, 99, 2047}}), uint16(40), uint16(900), uint16(4096))
	f.Add(seed(64, 32, typeMsg{initColor: 7, list: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}}), uint16(50), uint16(64), uint16(32))
	f.Add([]byte{0xFF, 0x00, 0xAB, 0x13}, uint16(32), uint16(100), uint16(64))
	f.Add([]byte{}, uint16(0), uint16(1), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, mRaw, spaceRaw uint16) {
		m := int(mRaw)%(1<<14) + 1
		space := int(spaceRaw)%(1<<12) + 1
		nbit := int(nbitRaw)
		if max := len(data) * 8; nbit > max {
			nbit = max
		}
		r := bitio.NewReader(data, nbit)
		msg, err := decodeTypeMsg(r, m, space)
		if err != nil {
			return
		}
		if msg.initColor < 0 || msg.initColor >= m {
			t.Fatalf("accepted message violates header ranges: %+v", msg)
		}
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		again, err := decodeTypeMsg(bitio.NewReader(w.Bytes(), w.Len()), m, space)
		if err != nil {
			t.Fatalf("re-encode of accepted message failed to decode: %v", err)
		}
		if again.initColor != msg.initColor || !reflect.DeepEqual(again.list, msg.list) {
			t.Fatalf("decode not idempotent: %+v vs %+v", msg, again)
		}
	})
}

// countingSink counts reported decode faults.
type countingSink struct{ n int }

func (s *countingSink) ReportDecodeFault() { s.n++ }

// controlAlg is node 0 of a two-node instance, 0 and 1, between round 1
// and its commit. Node 1 is its one same-bucket neighbor, with a family
// of k' one-color sets, set i holding color i, so the set an accepted
// index selects names the index. Node 0's candidate set is every color a
// commit message of WidthFor(|C|) bits can carry, so its commit counts
// show any color Inbox accepts.
func controlAlg(kprime, space int, sink sim.FaultSink) *alg {
	ids := make([]int, max(kprime, 1<<bitio.WidthFor(space)))
	for i := range ids {
		ids[i] = i
	}
	sets := make([][]int, kprime)
	for i := range sets {
		sets[i] = ids[i : i+1 : i+1]
	}
	cv := ids[:1<<bitio.WidthFor(space)]
	return &alg{
		spec:      spec{kprime: kprime, spaceSize: space},
		sink:      sink,
		cv:        [][]int{cv, nil},
		sbFrom:    [][]int32{{1}, nil},
		sbFam:     [][]*cover.CachedFamily{{{Sets: sets}}, nil},
		sbSet:     [][][]int{{nil}, nil},
		committed: [][]int32{make([]int32, len(cv)), nil},
		phi:       []int{-1, -1},
	}
}

// FuzzDecodeFK24ControlMsgs feeds arbitrary bits, as a payload corrupted
// in transit, to the Inbox rounds of the two fixed-width control messages
// (candidate-set index in round 2, commit color after it). Each takes the
// bits exactly when they are WidthFor(bound) bits reading below its bound,
// k' for the index (which then selects that set of the sender's family)
// and |C| for the color, and reports each refusal to the fault ledger once.
func FuzzDecodeFK24ControlMsgs(f *testing.F) {
	f.Add([]byte{0xD0}, uint16(8), uint16(10), uint16(100))
	f.Add([]byte{0x00, 0x00}, uint16(16), uint16(1), uint16(1))
	f.Add([]byte{0xFF, 0xFF}, uint16(11), uint16(4096), uint16(4096))
	f.Add([]byte{0x70}, uint16(4), uint16(10), uint16(100)) // an index, not a color

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, kRaw, spaceRaw uint16) {
		kprime := int(kRaw)%(1<<12) + 1
		space := int(spaceRaw)%(1<<12) + 1
		nbit := min(int(nbitRaw), 8*len(data))
		sink := &countingSink{}
		a := controlAlg(kprime, space, sink)
		in := []sim.Received{{From: 1, Payload: sim.CorruptPayload{Bits: data, NBit: nbit}}}
		a.round = 2
		a.Inbox(0, in)
		a.round = 3
		a.Inbox(0, in)
		wantIdx, wantColor := wireUint(data, nbit, kprime), wireUint(data, nbit, space)
		idx := -1
		if set := a.sbSet[0][0]; set != nil {
			if len(set) != 1 {
				t.Fatalf("set %v is not one of the family's", set)
			}
			idx = set[0]
		}
		if idx != wantIdx {
			t.Fatalf("index %d; want %d (kprime=%d)", idx, wantIdx, kprime)
		}
		color, commits := -1, 0
		for c, cnt := range a.committed[0] {
			if cnt > 0 {
				color, commits = c, commits+int(cnt)
			}
		}
		if commits > 1 || color != wantColor {
			t.Fatalf("%d commits, last of color %d; want one of color %d (space=%d)", commits, color, wantColor, space)
		}
		if refused := min(wantIdx, 0) + min(wantColor, 0); sink.n != -refused {
			t.Fatalf("%d refusals reported %d times", -refused, sink.n)
		}
	})
}

// wireUint is the value nbit bits of data carry as an index or color
// message under bound, or −1 where a receiver must refuse them: they are
// not WidthFor(bound) bits, or they read bound or more.
func wireUint(data []byte, nbit, bound int) int {
	width := bitio.WidthFor(bound)
	if nbit != width {
		return -1
	}
	if x := int(bitio.NewReader(data, nbit).ReadUint(width)); x < bound {
		return x
	}
	return -1
}
