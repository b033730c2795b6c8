package oldc

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/sim"
)

// FuzzDecodeTypeMsg drives the hardened type-message decoder with
// arbitrary bit strings and parameter combinations. The invariants:
// decoding never panics, every accepted message satisfies the documented
// header ranges, and accepted messages re-encode/re-decode to the same
// value (decode is idempotent on its own output). algkit's FuzzReadList
// checks the list field.
func FuzzDecodeTypeMsg(f *testing.F) {
	// A valid explicit-list message, a valid bitset message, and garbage.
	seed := func(m, h, space int, msg typeMsg) []byte {
		msg.mWidth = bitio.WidthFor(m)
		msg.hWidth = bitio.WidthFor(h + 1)
		msg.spaceSize = space
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		return w.Bytes()
	}
	f.Add(seed(900, 6, 4096, typeMsg{initColor: 123, gclass: 4, defect: 17, list: []int{5, 99, 2047}}), uint16(40), uint16(900), uint8(6), uint16(4096))
	f.Add(seed(64, 3, 32, typeMsg{initColor: 7, gclass: 2, defect: 1, list: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}}), uint16(50), uint16(64), uint8(3), uint16(32))
	f.Add([]byte{0xFF, 0x00, 0xAB, 0x13}, uint16(32), uint16(100), uint8(4), uint16(64))
	f.Add([]byte{}, uint16(0), uint16(1), uint8(1), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, mRaw uint16, hRaw uint8, spaceRaw uint16) {
		m := int(mRaw)%(1<<14) + 1
		h := int(hRaw)%16 + 1
		space := int(spaceRaw)%(1<<12) + 1
		nbit := int(nbitRaw)
		if max := len(data) * 8; nbit > max {
			nbit = max
		}
		r := bitio.NewReader(data, nbit)
		msg, err := decodeTypeMsg(r, m, h, space)
		if err != nil {
			return
		}
		if msg.initColor < 0 || msg.initColor >= m || msg.gclass < 1 || msg.gclass > h || msg.defect < 0 {
			t.Fatalf("accepted message violates header ranges: %+v", msg)
		}
		// Idempotence: the accepted value re-encodes to a decodable message
		// with identical fields (the branch flag may differ from the input).
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		again, err := decodeTypeMsg(bitio.NewReader(w.Bytes(), w.Len()), m, h, space)
		if err != nil {
			t.Fatalf("re-encode of accepted message failed to decode: %v", err)
		}
		if again.initColor != msg.initColor || again.gclass != msg.gclass ||
			again.defect != msg.defect || !reflect.DeepEqual(again.list, msg.list) {
			t.Fatalf("decode not idempotent: %+v vs %+v", msg, again)
		}
	})
}

// FuzzDecodeControlMsgs feeds arbitrary bits, as a payload corrupted in
// transit, to the receivers of the two fixed-width control messages
// (chosen-set index and final color). Each takes the bits exactly when
// they are WidthFor(bound) bits reading below its bound, k' for the index
// (which then selects that set of the sender's family) and |C| for the
// color, and reports each refusal to the fault ledger once.
func FuzzDecodeControlMsgs(f *testing.F) {
	f.Add([]byte{0xD0}, uint16(8), uint16(10), uint16(100))
	f.Add([]byte{0x00, 0x00}, uint16(16), uint16(1), uint16(1))
	f.Add([]byte{0xFF, 0xFF}, uint16(11), uint16(4096), uint16(4096))
	f.Add([]byte{0x70}, uint16(4), uint16(10), uint16(100)) // an index, not a color

	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, kRaw, spaceRaw uint16) {
		kprime := int(kRaw)%(1<<12) + 1
		space := int(spaceRaw)%(1<<12) + 1
		nbit := min(int(nbitRaw), 8*len(data))
		sink := &countingSink{}
		a, pos := controlRecord(kprime, space, sink)
		in := fromNode1(sim.CorruptPayload{Bits: data, NBit: nbit})
		a.recvSets(0, in)
		a.recvColors(0, in)
		wantIdx, wantColor := wireUint(data, nbit, kprime), wireUint(data, nbit, space)
		if idx := int(a.nbrCvIdx[pos]); idx != wantIdx || (idx >= 0 && !slices.Equal(a.nbrCv[pos], []int{idx})) {
			t.Fatalf("index %d, set %v; want index %d (k'=%d)", idx, a.nbrCv[pos], wantIdx, kprime)
		}
		if c := int(a.nbrColor[pos]); c != wantColor {
			t.Fatalf("color %d; want %d (|C|=%d)", c, wantColor, space)
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
