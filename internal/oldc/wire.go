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
// CONGEST messages, three kinds as in the proof of Lemma 3.6. The type
// message sends the initial color, γ-class, defect and restricted list
// instead of the astronomically large family K_v, which the receiver
// re-derives deterministically; its list field is algkit.WriteList's. The
// chosen set goes as its index into that family and the final color as
// itself, each a sim.UintPayload that receivers resolve with sim.AsUint.
package oldc

import (
	"repro/internal/algkit"
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
	mWidth    int
	hWidth    int
	spaceSize int
}

func (m typeMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.initColor), m.mWidth)
	w.WriteUint(uint64(m.gclass), m.hWidth)
	w.WriteVarint(uint64(m.defect))
	algkit.WriteList(w, m.list, m.spaceSize)
}

var _ sim.Payload = typeMsg{}

// The simulator hands the receiver the payload value directly and uses
// EncodeBits only for bandwidth accounting; the decoder below certifies
// that the encoding is self-contained (a real CONGEST wire could carry
// exactly these bits), and it is the recovery path for corrupted payloads:
// when the fault model flips a bit, the receiver gets a sim.CorruptPayload
// and re-parses the damaged bits here. It therefore validates every field
// against the shared global parameters and returns a typed
// *sim.DecodeError instead of panicking or silently accepting out-of-range
// values.

// maxWireDefect bounds the defect field a decoder accepts: no instance in
// this repository has defects anywhere near 2^32, so anything larger is
// corruption, and rejecting it keeps int conversions safe on every
// platform.
const maxWireDefect = 1 << 32

// decodeTypeMsg parses the wire form of a typeMsg given the shared global
// parameters (m, h, |C|). The returned message is fully validated:
// initColor ∈ [0, m), γ-class ∈ [1, h], a bounded defect, and the list
// checks of algkit.ReadList.
func decodeTypeMsg(r *bitio.Reader, m, h, spaceSize int) (typeMsg, error) {
	fail := func(reason string) (typeMsg, error) {
		return typeMsg{}, &sim.DecodeError{Kind: "oldc type", Reason: reason, Err: r.Err()}
	}
	out := typeMsg{
		mWidth:    bitio.WidthFor(m),
		hWidth:    bitio.WidthFor(h + 1),
		spaceSize: spaceSize,
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
	list, err := algkit.ReadList(r, spaceSize)
	if err != nil {
		return typeMsg{}, err
	}
	out.list = list
	return out, nil
}

// asTypeMsg resolves an inbox payload of a type round: a clean typeMsg
// passes through, and any other goes to sim.Reparse, which re-parses a
// corrupted one and reports and skips it when it fails to decode. The
// message is valid only when the bool is true.
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
