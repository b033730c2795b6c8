package oldc

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestTypeMsgRoundTrip(t *testing.T) {
	m, h, space := 900, 6, 4096
	msg := typeMsg{
		initColor: 123,
		gclass:    4,
		defect:    17,
		list:      []int{5, 99, 100, 2047, 4095},
		mWidth:    bitio.WidthFor(m),
		hWidth:    bitio.WidthFor(h + 1),
		spaceSize: space,
	}
	w := bitio.NewWriter()
	msg.EncodeBits(w)
	got, err := decodeTypeMsg(bitio.NewReader(w.Bytes(), w.Len()), m, h, space)
	if err != nil {
		t.Fatal(err)
	}
	if got.initColor != msg.initColor || got.gclass != msg.gclass || got.defect != msg.defect {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.list, msg.list) {
		t.Fatalf("list mismatch: %v vs %v", got.list, msg.list)
	}
}

func TestTypeMsgBitsetBranch(t *testing.T) {
	// A long list over a small space triggers the |C|-bit bitset encoding
	// (the min{} in Theorem 1.1's message bound); it must round-trip too.
	m, h, space := 64, 3, 32
	list := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		list = append(list, i)
	}
	msg := typeMsg{
		initColor: 7, gclass: 2, defect: 1, list: list,
		mWidth: bitio.WidthFor(m), hWidth: bitio.WidthFor(h + 1),
		spaceSize: space,
	}
	w := bitio.NewWriter()
	msg.EncodeBits(w)
	// 1 + Λ·log|C| = 1 + 20·5 = 101 > |C| = 32 → bitset branch: size is
	// header + 1 + 32 bits.
	header := msg.mWidth + msg.hWidth
	if w.Len() > header+16+1+space {
		t.Fatalf("bitset branch not taken: %d bits", w.Len())
	}
	got, err := decodeTypeMsg(bitio.NewReader(w.Bytes(), w.Len()), m, h, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.list, list) {
		t.Fatalf("bitset round trip failed: %v", got.list)
	}
}

func TestTypeMsgRoundTripProperty(t *testing.T) {
	f := func(init uint16, gclass uint8, defect uint8, raw []uint16) bool {
		m, h, space := 1<<16, 8, 1<<12
		seen := map[int]bool{}
		list := []int{0} // decoders reject empty lists; always include color 0
		seen[0] = true
		for _, x := range raw {
			c := int(x) % space
			if !seen[c] {
				seen[c] = true
				list = append(list, c)
			}
		}
		slices.Sort(list)
		msg := typeMsg{
			initColor: int(init), gclass: int(gclass)%h + 1, defect: int(defect),
			list:   list,
			mWidth: bitio.WidthFor(m), hWidth: bitio.WidthFor(h + 1),
			spaceSize: space,
		}
		w := bitio.NewWriter()
		msg.EncodeBits(w)
		got, err := decodeTypeMsg(bitio.NewReader(w.Bytes(), w.Len()), m, h, space)
		return err == nil && got.initColor == msg.initColor && got.gclass == msg.gclass &&
			got.defect == msg.defect && reflect.DeepEqual(got.list, msg.list)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func encodeTypeMsg(t *testing.T, m, h, space int, msg typeMsg) ([]byte, int) {
	t.Helper()
	msg.mWidth = bitio.WidthFor(m)
	msg.hWidth = bitio.WidthFor(h + 1)
	msg.spaceSize = space
	w := bitio.NewWriter()
	msg.EncodeBits(w)
	return w.Bytes(), w.Len()
}

func TestDecodeTypeMsgRejectsBadFields(t *testing.T) {
	m, h, space := 100, 4, 64
	valid := typeMsg{initColor: 42, gclass: 2, defect: 3, list: []int{1, 5, 9}}
	buf, nbit := encodeTypeMsg(t, m, h, space, valid)
	if _, err := decodeTypeMsg(bitio.NewReader(buf, nbit), m, h, space); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}

	for name, bad := range map[string]typeMsg{
		// mWidth=7 encodes up to 127; 101 is encodable but outside [0, m).
		"initColor≥m": {initColor: 101, gclass: 2, defect: 3, list: []int{1}},
		// hWidth=3 encodes up to 7; 5 is encodable but outside [1, h].
		"gclass>h": {initColor: 1, gclass: 5, defect: 3, list: []int{1}},
	} {
		buf, nbit := encodeTypeMsg(t, m, h, space, bad)
		if _, err := decodeTypeMsg(bitio.NewReader(buf, nbit), m, h, space); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// Every truncation of a valid message must error, never panic.
	for cut := 0; cut < nbit; cut++ {
		if _, err := decodeTypeMsg(bitio.NewReader(buf, cut), m, h, space); err == nil {
			t.Errorf("truncation at bit %d decoded without error", cut)
		}
	}
}

// controlRecord is a two-node record, 0 → 1, whose receivers resolve
// chosen-set indices against k' sets and colors against |C| = space. Node
// 1's family is k' one-color sets, set i holding color i, so the set an
// accepted index selects names the index. pos is node 0's arc to node 1.
func controlRecord(kprime, space int, sink sim.FaultSink) (a nbrRecord, pos int32) {
	o := graph.Orient(graph.Path(2), func(u, v int) bool { return u == 0 })
	a = newNbrRecord(basicSpec{o: o, kprime: kprime, spaceSize: space})
	a.sink = sink
	pos = a.csr.Off[0]
	ids := make([]int, kprime)
	sets := make([][]int, kprime)
	for i := range ids {
		ids[i] = i
		sets[i] = ids[i : i+1 : i+1]
	}
	a.nbrFam[pos] = &cover.CachedFamily{Sets: sets}
	return a, pos
}

// fromNode1 is an inbox holding one payload, sent by node 1.
func fromNode1(p sim.Payload) []sim.Received { return []sim.Received{{From: 1, Payload: p}} }

// corruptUint is value in width bits as a payload the fault model changed
// in transit, which the receiver must re-parse.
func corruptUint(value uint64, width int) sim.CorruptPayload {
	w := bitio.NewWriter()
	w.WriteUint(value, width)
	return sim.CorruptPayload{Bits: w.Bytes(), NBit: w.Len()}
}

func TestDecodeChosenSetRejectsOutOfRange(t *testing.T) {
	// width for kprime=10 is 4 bits; index 12 is encodable but invalid.
	sink := &countingSink{}
	a, pos := controlRecord(10, 100, sink)
	a.recvSets(0, fromNode1(corruptUint(12, bitio.WidthFor(10))))
	if a.nbrCvIdx[pos] != -1 || a.nbrCv[pos] != nil || sink.n != 1 {
		t.Fatalf("out-of-family index: index %d, set %v, %d faults", a.nbrCvIdx[pos], a.nbrCv[pos], sink.n)
	}
	a.recvSets(0, fromNode1(sim.CorruptPayload{}))
	if a.nbrCvIdx[pos] != -1 || sink.n != 2 {
		t.Fatal("truncated chosenSet decoded without error")
	}
	// Index 7 in the same width is in the family: node 0 takes set 7.
	a.recvSets(0, fromNode1(corruptUint(7, bitio.WidthFor(10))))
	if a.nbrCvIdx[pos] != 7 || !slices.Equal(a.nbrCv[pos], []int{7}) || sink.n != 2 {
		t.Fatalf("in-family index: index %d, set %v, %d faults", a.nbrCvIdx[pos], a.nbrCv[pos], sink.n)
	}
}

func TestDecodeColorRejectsOutOfRange(t *testing.T) {
	// width for space=100 is 7 bits; color 101 is encodable but invalid.
	sink := &countingSink{}
	a, pos := controlRecord(10, 100, sink)
	a.recvColors(0, fromNode1(corruptUint(101, bitio.WidthFor(100))))
	if a.nbrColor[pos] != -1 || sink.n != 1 {
		t.Fatalf("out-of-space color: color %d, %d faults", a.nbrColor[pos], sink.n)
	}
	a.recvColors(0, fromNode1(corruptUint(99, bitio.WidthFor(100))))
	if a.nbrColor[pos] != 99 || sink.n != 1 {
		t.Fatalf("in-space color: color %d, %d faults", a.nbrColor[pos], sink.n)
	}
}

// countingSink counts reported decode faults.
type countingSink struct{ n int }

func (s *countingSink) ReportDecodeFault() { s.n++ }

func TestAsHelpersTolerateCorruption(t *testing.T) {
	m, h, space := 100, 4, 64
	buf, nbit := encodeTypeMsg(t, m, h, space, typeMsg{initColor: 42, gclass: 2, defect: 3, list: []int{1, 5, 9}})

	sink := &countingSink{}
	// An uncorrupted re-encoding decodes cleanly.
	if _, ok := asTypeMsg(sim.CorruptPayload{Bits: buf, NBit: nbit}, m, h, space, sink); !ok {
		t.Fatal("clean payload failed to decode")
	}
	if sink.n != 0 {
		t.Fatal("clean decode reported a fault")
	}
	// Truncated payloads are rejected and reported, for every cut point.
	for cut := 0; cut < nbit; cut++ {
		if _, ok := asTypeMsg(sim.CorruptPayload{Bits: buf, NBit: cut}, m, h, space, sink); ok {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if sink.n != nbit {
		t.Fatalf("reported %d faults for %d truncations", sink.n, nbit)
	}
	// A nil sink must not crash the rejection path.
	if _, ok := asTypeMsg(sim.CorruptPayload{Bits: buf, NBit: 3}, m, h, space, nil); ok {
		t.Fatal("truncated payload accepted with nil sink")
	}
	// Unexpected kinds are skipped without being counted as wire faults.
	before := sink.n
	if _, ok := asTypeMsg(sim.UintPayload{Value: 1, Width: 7}, m, h, space, sink); ok {
		t.Fatal("wrong-kind payload accepted")
	}
	if sink.n != before {
		t.Fatal("wrong-kind payload reported as decode fault")
	}

	// Single-bit flips: every flip either decodes to a (possibly different)
	// valid message or is reported — never a panic, and trailing-bit
	// mismatches are caught by the exact-consumption rule.
	for bit := 0; bit < nbit; bit++ {
		dam := make([]byte, len(buf))
		copy(dam, buf)
		dam[bit/8] ^= 1 << (7 - uint(bit%8))
		asTypeMsg(sim.CorruptPayload{Bits: dam, NBit: nbit}, m, h, space, sink)
	}
}

// asResult keeps the resolved values alive so the calls are not optimized
// away.
var asResult int

// BenchmarkAsHelpersClean times the path every fault-free message takes:
// resolving a clean payload of each kind the round schedule expects (type,
// chosen-set index, color).
func BenchmarkAsHelpersClean(b *testing.B) {
	pays := []sim.Payload{
		typeMsg{initColor: 42, gclass: 2, defect: 3, list: []int{1, 5, 9}},
		sim.UintPayload{Value: 7, Width: 4},
		sim.UintPayload{Value: 33, Width: 7},
	}
	sink := &countingSink{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm, _ := asTypeMsg(pays[0], 100, 4, 64, sink)
		idx, _ := sim.AsUint(pays[1], 10, sink)
		c, _ := sim.AsUint(pays[2], 100, sink)
		asResult += tm.defect + idx + c
	}
}
