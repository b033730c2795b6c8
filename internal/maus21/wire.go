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
// hardened like internal/oldc's (typed *DecodeError, field validation,
// fault-ledger reporting). The two Linial stages reuse internal/linial,
// which skips non-UintPayload messages rather than trusting the wire.
package maus21

import (
	"fmt"

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

// DecodeError reports a wire payload that failed to parse as a pick
// message: truncated or carrying a field outside the globally known
// ranges.
type DecodeError struct {
	Reason string
	Err    error // underlying bitio error, if any
}

// Error describes the malformed message.
func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("maus21: bad pick message: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("maus21: bad pick message: %s", e.Reason)
}

// Unwrap exposes the underlying bitio error for errors.Is/As chains.
func (e *DecodeError) Unwrap() error { return e.Err }

// decodePickMsg parses the wire form given the global parameters: q1
// defect classes and a palette of d+1 colors.
func decodePickMsg(r *bitio.Reader, q1, palette int) (pickMsg, error) {
	out := pickMsg{classWidth: bitio.WidthFor(q1), pickWidth: bitio.WidthFor(palette)}
	out.class = int(r.ReadUint(out.classWidth))
	out.pick = int(r.ReadUint(out.pickWidth))
	if r.Err() != nil {
		return pickMsg{}, &DecodeError{Reason: "truncated", Err: r.Err()}
	}
	if out.class >= q1 {
		return pickMsg{}, &DecodeError{Reason: "class outside [0, q1)"}
	}
	if out.pick >= palette {
		return pickMsg{}, &DecodeError{Reason: "pick outside the palette"}
	}
	return out, nil
}

// faultReporter receives detected decode failures (*sim.Engine implements
// it).
type faultReporter interface{ ReportDecodeFault() }

// asPickMsg resolves an inbox payload: native pass-through, or re-parse of
// a corrupted payload with exact-consumption check; failures are reported
// to the fault ledger and dropped.
func asPickMsg(pay sim.Payload, q1, palette int, sink faultReporter) (pickMsg, bool) {
	switch p := pay.(type) {
	case pickMsg:
		return p, true
	case sim.CorruptPayload:
		r := p.Reader()
		msg, err := decodePickMsg(r, q1, palette)
		if err != nil || r.Remaining() != 0 {
			if sink != nil {
				sink.ReportDecodeFault()
			}
			return pickMsg{}, false
		}
		return msg, true
	default:
		return pickMsg{}, false
	}
}
