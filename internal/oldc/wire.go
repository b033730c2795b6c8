// Package oldc implements the paper's core contribution (Section 3): the
// deterministic distributed algorithms for oriented list defective coloring
// (OLDC).
//
//   - runBasic (single.go) is the basic algorithm of Section 3.2.3 for
//     instances where every node has one fixed defect value, including the
//     generalized gap-g variant.
//   - SolveMulti (multi.go) is Lemma 3.6: arbitrary defect functions are
//     reduced to the single-defect case by restricting each node to the
//     defect class with the largest (d+1)² mass.
//   - Solve (main.go) is Lemma 3.8 / Theorem 1.1: γ-classes are chosen by
//     an auxiliary generalized OLDC instance, and a two-phase algorithm
//     (ascending class iterations with bad-color removal, then descending
//     color selection) solves the instance under the weaker condition (6).
//
// All algorithms run on the synchronous simulator with bit-accounted
// CONGEST messages; the type messages use the exact encodings from the
// proof of Lemma 3.6 (send the restricted list, the defect, and the initial
// color instead of the astronomically large family K_v, which the receiver
// re-derives deterministically).
package oldc

import (
	"repro/internal/bitio"
	"repro/internal/sim"
)

// typeMsg carries a node's P2 type: its initial color, γ-class, single
// defect value, and restricted color list. The receiver re-derives the
// candidate family K deterministically from these fields (Lemma 3.6's
// encoding argument).
type typeMsg struct {
	initColor int
	gclass    int
	defect    int
	list      []int
	// encoding widths (global knowledge)
	mWidth     int
	hWidth     int
	spaceSize  int
	colorWidth int
}

func (m typeMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.initColor), m.mWidth)
	w.WriteUint(uint64(m.gclass), m.hWidth)
	w.WriteVarint(uint64(m.defect))
	// The list is sent as the cheaper of a characteristic vector (|C| bits)
	// or an explicit color list (Λ·log|C| bits) — the min{|C|, Λ·log|C|}
	// term of Theorem 1.1.
	explicit := 1 + len(m.list)*m.colorWidth
	if m.spaceSize <= explicit {
		w.WriteBit(0)
		w.WriteBitset(m.list, m.spaceSize)
	} else {
		w.WriteBit(1)
		w.WriteVarint(uint64(len(m.list)))
		for _, c := range m.list {
			w.WriteUint(uint64(c), m.colorWidth)
		}
	}
}

// chosenSetMsg announces the P1 output C_v as an index into the sender's
// candidate family (receivers re-derive the family from the type message).
type chosenSetMsg struct {
	index int
	width int
}

func (m chosenSetMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.index), m.width)
}

// colorMsg announces a final color choice.
type colorMsg struct {
	color int
	width int
}

func (m colorMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.color), m.width)
}

var (
	_ sim.Payload = typeMsg{}
	_ sim.Payload = chosenSetMsg{}
	_ sim.Payload = colorMsg{}
)

// The simulator hands the receiver the payload value directly and uses
// EncodeBits only for bandwidth accounting; the decoders below certify
// that the encodings are self-contained (a real CONGEST wire could carry
// exactly these bits), and they are the recovery path for corrupted
// payloads: when the fault model flips a bit, the receiver gets a
// sim.CorruptPayload and re-parses the damaged bits here. Every decoder
// therefore validates its fields against the shared global parameters and
// returns a typed *sim.DecodeError instead of panicking or silently
// accepting out-of-range values.

// maxWireDefect bounds the defect field a decoder accepts: no instance in
// this repository has defects anywhere near 2^32, so anything larger is
// corruption, and rejecting it keeps int conversions safe on every
// platform.
const maxWireDefect = 1 << 32

// decodeTypeMsg parses the wire form of a typeMsg given the shared global
// parameters (m, h, |C|). The returned message is fully validated:
// initColor ∈ [0, m), γ-class ∈ [1, h], a bounded defect, and a non-empty
// strictly-ascending color list inside the space.
func decodeTypeMsg(r *bitio.Reader, m, h, spaceSize int) (typeMsg, error) {
	fail := func(reason string) (typeMsg, error) {
		return typeMsg{}, &sim.DecodeError{Kind: "oldc type", Reason: reason, Err: r.Err()}
	}
	out := typeMsg{
		mWidth:     bitio.WidthFor(m),
		hWidth:     bitio.WidthFor(h + 1),
		spaceSize:  spaceSize,
		colorWidth: bitio.WidthFor(spaceSize),
	}
	out.initColor = int(r.ReadUint(out.mWidth))
	out.gclass = int(r.ReadUint(out.hWidth))
	defect := r.ReadVarint()
	if r.Err() != nil {
		return fail("truncated header")
	}
	if out.initColor >= m {
		return fail("initial color outside [0, m)")
	}
	if out.gclass < 1 || out.gclass > h {
		return fail("γ-class outside [1, h]")
	}
	if defect >= maxWireDefect {
		return fail("absurd defect value")
	}
	out.defect = int(defect)
	if r.ReadBit() == 0 {
		out.list = r.ReadBitset(spaceSize)
		if r.Err() != nil {
			return fail("truncated bitset list")
		}
	} else {
		n := int(r.ReadVarint())
		if r.Err() != nil {
			return fail("truncated list length")
		}
		// A strictly-ascending in-range list has at most |C| entries, and
		// its encoding needs n·colorWidth more bits; checking both before
		// the loop bounds work and allocation on hostile input.
		if n > spaceSize || n*out.colorWidth > r.Remaining() {
			return fail("list length exceeds the color space or the payload")
		}
		out.list = make([]int, 0, n)
		for i := 0; i < n; i++ {
			c := int(r.ReadUint(out.colorWidth))
			if c >= spaceSize {
				return fail("list color outside the space")
			}
			if i > 0 && c <= out.list[i-1] {
				return fail("list not strictly ascending")
			}
			out.list = append(out.list, c)
		}
		if r.Err() != nil {
			return fail("truncated list")
		}
	}
	if len(out.list) == 0 {
		return fail("empty color list")
	}
	return out, nil
}

// decodeChosenSetMsg parses the wire form of a chosenSetMsg; the index
// must address the k′-set candidate family.
func decodeChosenSetMsg(r *bitio.Reader, kprime int) (chosenSetMsg, error) {
	w := bitio.WidthFor(kprime)
	idx := int(r.ReadUint(w))
	if r.Err() != nil {
		return chosenSetMsg{}, &sim.DecodeError{Kind: "oldc chosenSet", Reason: "truncated", Err: r.Err()}
	}
	if kprime > 0 && idx >= kprime {
		return chosenSetMsg{}, &sim.DecodeError{Kind: "oldc chosenSet", Reason: "index outside the candidate family"}
	}
	return chosenSetMsg{index: idx, width: w}, nil
}

// decodeColorMsg parses the wire form of a colorMsg; the color must lie in
// the space.
func decodeColorMsg(r *bitio.Reader, spaceSize int) (colorMsg, error) {
	w := bitio.WidthFor(spaceSize)
	c := int(r.ReadUint(w))
	if r.Err() != nil {
		return colorMsg{}, &sim.DecodeError{Kind: "oldc color", Reason: "truncated", Err: r.Err()}
	}
	if spaceSize > 0 && c >= spaceSize {
		return colorMsg{}, &sim.DecodeError{Kind: "oldc color", Reason: "color outside the space"}
	}
	return colorMsg{color: c, width: w}, nil
}

// The as* helpers resolve an inbox payload to the message kind the round
// schedule expects: a clean payload of that kind passes through, and any
// other goes to sim.Reparse, which re-parses a corrupted one and reports
// and skips it when it fails to decode. The message is valid only when the
// bool is true.

func asTypeMsg(pay sim.Payload, m, h, spaceSize int, sink sim.FaultSink) (typeMsg, bool) {
	if msg, ok := pay.(typeMsg); ok {
		return msg, true
	}
	var msg typeMsg
	ok := sim.Reparse(pay, sink, func(r *bitio.Reader) (err error) {
		msg, err = decodeTypeMsg(r, m, h, spaceSize)
		return err
	})
	return msg, ok
}

func asChosenSetMsg(pay sim.Payload, kprime int, sink sim.FaultSink) (chosenSetMsg, bool) {
	if msg, ok := pay.(chosenSetMsg); ok {
		return msg, true
	}
	var msg chosenSetMsg
	ok := sim.Reparse(pay, sink, func(r *bitio.Reader) (err error) {
		msg, err = decodeChosenSetMsg(r, kprime)
		return err
	})
	return msg, ok
}

func asColorMsg(pay sim.Payload, spaceSize int, sink sim.FaultSink) (colorMsg, bool) {
	if msg, ok := pay.(colorMsg); ok {
		return msg, true
	}
	var msg colorMsg
	ok := sim.Reparse(pay, sink, func(r *bitio.Reader) (err error) {
		msg, err = decodeColorMsg(r, spaceSize)
		return err
	})
	return msg, ok
}
