// Package maus21 implements the trade-off coloring algorithm of Maus,
// "Distributed Graph Coloring Made Easy" (arXiv 2105.05575): a proper
// O(kΔ)-coloring in CONGEST whose k knob trades palette size against
// rounds.
//
// The pipeline, on the symmetric orientation (so out-defect = undirected
// defect):
//
//  1. defect classes — linial.Defective with budget d = ⌈Δ̂/k⌉ − 1 splits
//     the graph into q₁ classes of maximum intra-class degree d
//     (O(log* n) rounds, the internal/linial GF(p) bootstrap).
//  2. intra ordering — linial.ProperWithin runs the same reduction
//     restricted to same-class neighbors, producing an intra-class proper
//     coloring with q₂ = O(d²) colors (O(log* n) rounds).
//  3. palette commit — q₂ rounds; in round t the nodes with intra color t
//     greedily grab the smallest palette color of [0, d] unused by any
//     committed same-class neighbor. At most d same-class neighbors exist,
//     so a free slot always remains; same-round committers share an intra
//     color and are therefore never same-class adjacent.
//
// The final color class(v)·(d+1) + pick(v) is proper with q₁·(d+1) = O(kΔ)
// colors. Deviation from the paper: the commit stage runs in O(d²) rounds
// (one per intra color) rather than the paper's O(Δ/k) — the recursive
// class-iteration machinery that removes the square is intentionally left
// out of this "made easy" reproduction, so the measured sweet spot sits at
// small d (large k). With k ≥ Δ̂ the knob degenerates to d = 0 and the
// result is exactly Linial's O(Δ²)-coloring in O(log* n) rounds.
//
// The commit broadcast is the one new wire message; its decoder is
// hardened like internal/oldc's (typed *sim.DecodeError, field validation,
// fault-ledger reporting through sim.Reparse). The two Linial stages reuse internal/linial,
// which skips non-UintPayload messages rather than trusting the wire.
package maus21

import (
	"repro/internal/bitio"
	"repro/internal/sim"
)

// pickMsg announces a committed palette pick: the sender's defect class —
// so receivers can filter same-class senders without per-neighbor state —
// and the palette color it grabbed.
type pickMsg struct {
	class      int
	pick       int
	classWidth int
	pickWidth  int
}

// EncodeBits writes the class then the palette pick.
func (m pickMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.class), m.classWidth)
	w.WriteUint(uint64(m.pick), m.pickWidth)
}

var _ sim.Payload = pickMsg{}

// decodePickMsg parses the wire form given the global parameters: q1
// defect classes and a palette of d+1 colors.
func decodePickMsg(r *bitio.Reader, q1, palette int) (pickMsg, error) {
	out := pickMsg{classWidth: bitio.WidthFor(q1), pickWidth: bitio.WidthFor(palette)}
	out.class = int(r.ReadUint(out.classWidth))
	out.pick = int(r.ReadUint(out.pickWidth))
	if r.Err() != nil {
		return pickMsg{}, &sim.DecodeError{Kind: "maus21 pick", Reason: "truncated", Err: r.Err()}
	}
	if out.class >= q1 {
		return pickMsg{}, &sim.DecodeError{Kind: "maus21 pick", Reason: "class outside [0, q1)"}
	}
	if out.pick >= palette {
		return pickMsg{}, &sim.DecodeError{Kind: "maus21 pick", Reason: "pick outside the palette"}
	}
	return out, nil
}

// asPickMsg resolves an inbox payload: a clean pick message passes
// through, and any other payload goes to sim.Reparse.
func asPickMsg(pay sim.Payload, q1, palette int, sink sim.FaultSink) (pickMsg, bool) {
	if msg, ok := pay.(pickMsg); ok {
		return msg, true
	}
	var msg pickMsg
	ok := sim.Reparse(pay, sink, func(r *bitio.Reader) (err error) {
		msg, err = decodePickMsg(r, q1, palette)
		return err
	})
	return msg, ok
}
