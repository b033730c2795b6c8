// Package fk24 implements the simpler iterative list defective coloring
// framework of the authors' follow-up paper "Simpler and More General
// Distributed Coloring Based on Simple List Defective Coloring Algorithms"
// (Fuchs–Kuhn, arXiv 2405.04648).
//
// Where the Theorem 1.1 stack (internal/oldc) schedules nodes by γ-classes
// derived from an auxiliary OLDC solve, fk24 runs the *simple* schedule the
// follow-up paper builds everything from: commit nodes bucket by bucket of
// their initial coloring, and let each committing node pick the least
// loaded color of a small candidate set. Concretely, with B buckets
// (bucket(v) = initColor(v) mod B):
//
//	round 1:    broadcast the type (initial color + list); derive the
//	            deterministic candidate family of every same-bucket
//	            neighbor through the shared cover.FamilyCache
//	round 2:    choose the candidate set C_v conflicting with the fewest
//	            same-bucket neighbor families (batched bitset kernels)
//	            and announce it by index
//	round 3+b:  bucket b commits: pick x ∈ C_v minimizing the number of
//	            already-committed neighbor colors plus same-bucket
//	            candidate-set occurrences, and announce it
//
// for B + 2 rounds total. The B knob trades rounds for defect load:
// B = m is the paper's fully sequential one-round step (nodes of equal
// initial color are non-adjacent, so every commit sees all relevant
// neighbors and the pigeonhole bound Σ_x (d_v(x)+1) > deg(v) suffices);
// small B commits many adjacent nodes per round and charges the collisions
// among them to the defect budgets, with the candidate-set
// anti-coordination of round 2 keeping those collisions rare. Solve
// validates the output against the OLDC condition unless SkipValidate is
// set.
//
// The three message kinds are internal/oldc's, with the type cut to the
// initial color and the list: the list field is algkit.WriteList's, and
// the candidate-set index and the committed color are sim.UintPayloads. A
// corrupted payload (sim.CorruptPayload) is re-parsed through sim.Reparse
// (by decodeTypeMsg, or by sim.AsUint for the other two), validated field
// by field against the shared global parameters, and dropped — reported
// to the engine's fault ledger — when malformed.
package fk24

import (
	"repro/internal/algkit"
	"repro/internal/bitio"
	"repro/internal/sim"
)

// typeMsg carries a node's type: its initial color and its color list.
// Receivers re-derive the sender's bucket and candidate family from these
// fields (the Lemma 3.6-style encoding argument: send the type, not the
// astronomically large family).
type typeMsg struct {
	initColor int
	list      []int
	// encoding widths (global knowledge)
	mWidth    int
	spaceSize int
}

// EncodeBits writes the wire form: the initial color followed by
// algkit.WriteList's list field.
func (m typeMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.initColor), m.mWidth)
	algkit.WriteList(w, m.list, m.spaceSize)
}

var _ sim.Payload = typeMsg{}

// decodeTypeMsg parses the wire form of a typeMsg given the shared global
// parameters (m, |C|). The returned message is fully validated: initColor
// ∈ [0, m) and the list checks of algkit.ReadList.
func decodeTypeMsg(r *bitio.Reader, m, spaceSize int) (typeMsg, error) {
	out := typeMsg{mWidth: bitio.WidthFor(m), spaceSize: spaceSize}
	out.initColor = int(r.ReadUint(out.mWidth))
	if r.Err() != nil {
		return typeMsg{}, &sim.DecodeError{Kind: "fk24 type", Reason: "truncated header", Err: r.Err()}
	}
	if out.initColor >= m {
		return typeMsg{}, &sim.DecodeError{Kind: "fk24 type", Reason: "initial color outside [0, m)"}
	}
	list, err := algkit.ReadList(r, spaceSize)
	if err != nil {
		return typeMsg{}, err
	}
	out.list = list
	return out, nil
}

// asTypeMsg resolves an inbox payload of the type round: a clean typeMsg
// passes through, and any other goes to sim.Reparse, which re-parses a
// corrupted one and reports and skips it when it fails to decode. The
// message is valid only when the bool is true.
func asTypeMsg(pay sim.Payload, m, spaceSize int, sink sim.FaultSink) (typeMsg, bool) {
	if msg, ok := pay.(typeMsg); ok {
		return msg, true
	}
	var msg typeMsg
	ok := sim.Reparse(pay, sink, func(r *bitio.Reader) (err error) {
		msg, err = decodeTypeMsg(r, m, spaceSize)
		return err
	})
	return msg, ok
}
