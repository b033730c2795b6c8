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
// All three message kinds have hardened decoders: a corrupted payload
// (sim.CorruptPayload) is re-parsed, validated field by field against the
// shared global parameters, and dropped — reported to the engine's fault
// ledger — when malformed, exactly like internal/oldc's wire layer.
package fk24

import (
	"fmt"

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
	mWidth     int
	spaceSize  int
	colorWidth int
}

// EncodeBits writes the wire form: the initial color followed by the
// cheaper of a characteristic vector or an explicit color list.
func (m typeMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.initColor), m.mWidth)
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

// setMsg announces the chosen candidate set as an index into the sender's
// family (receivers re-derive the family from the round-1 type).
type setMsg struct {
	index int
	width int
}

// EncodeBits writes the candidate-set index.
func (m setMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.index), m.width)
}

// commitMsg announces a node's final color choice.
type commitMsg struct {
	color int
	width int
}

// EncodeBits writes the committed color.
func (m commitMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.color), m.width)
}

var (
	_ sim.Payload = typeMsg{}
	_ sim.Payload = setMsg{}
	_ sim.Payload = commitMsg{}
)

// DecodeError reports a wire payload that failed to parse as the expected
// fk24 message kind: truncated, syntactically malformed, or carrying a
// field outside the range the shared parameters allow.
type DecodeError struct {
	Kind   string // "type", "set", or "commit"
	Reason string // what was wrong
	Err    error  // underlying bitio error, if any
}

// Error describes the malformed message, including the underlying bitio
// error when there is one.
func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("fk24: bad %s message: %s: %v", e.Kind, e.Reason, e.Err)
	}
	return fmt.Sprintf("fk24: bad %s message: %s", e.Kind, e.Reason)
}

// Unwrap exposes the underlying bitio error for errors.Is/As chains.
func (e *DecodeError) Unwrap() error { return e.Err }

// decodeTypeMsg parses the wire form of a typeMsg given the shared global
// parameters (m, |C|). The returned message is fully validated: initColor
// ∈ [0, m) and a non-empty strictly-ascending color list inside the space.
func decodeTypeMsg(r *bitio.Reader, m, spaceSize int) (typeMsg, error) {
	fail := func(reason string) (typeMsg, error) {
		return typeMsg{}, &DecodeError{Kind: "type", Reason: reason, Err: r.Err()}
	}
	out := typeMsg{
		mWidth:     bitio.WidthFor(m),
		spaceSize:  spaceSize,
		colorWidth: bitio.WidthFor(spaceSize),
	}
	out.initColor = int(r.ReadUint(out.mWidth))
	if r.Err() != nil {
		return fail("truncated header")
	}
	if out.initColor >= m {
		return fail("initial color outside [0, m)")
	}
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
		// its encoding needs n·colorWidth more bits; checking both bounds
		// work and allocation on hostile input.
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

// decodeSetMsg parses the wire form of a setMsg; the index must address
// the k′-set candidate family.
func decodeSetMsg(r *bitio.Reader, kprime int) (setMsg, error) {
	w := bitio.WidthFor(kprime)
	idx := int(r.ReadUint(w))
	if r.Err() != nil {
		return setMsg{}, &DecodeError{Kind: "set", Reason: "truncated", Err: r.Err()}
	}
	if kprime > 0 && idx >= kprime {
		return setMsg{}, &DecodeError{Kind: "set", Reason: "index outside the candidate family"}
	}
	return setMsg{index: idx, width: w}, nil
}

// decodeCommitMsg parses the wire form of a commitMsg; the color must lie
// in the space.
func decodeCommitMsg(r *bitio.Reader, spaceSize int) (commitMsg, error) {
	w := bitio.WidthFor(spaceSize)
	c := int(r.ReadUint(w))
	if r.Err() != nil {
		return commitMsg{}, &DecodeError{Kind: "commit", Reason: "truncated", Err: r.Err()}
	}
	if spaceSize > 0 && c >= spaceSize {
		return commitMsg{}, &DecodeError{Kind: "commit", Reason: "color outside the space"}
	}
	return commitMsg{color: c, width: w}, nil
}

// faultReporter receives detected decode failures; *sim.Engine implements
// it (ReportDecodeFault feeds the per-round fault ledger).
type faultReporter interface{ ReportDecodeFault() }

// report forwards a detected decode fault if a sink is installed.
func report(sink faultReporter) {
	if sink != nil {
		sink.ReportDecodeFault()
	}
}

// The as* helpers resolve an inbox payload to the message kind the round
// schedule expects. A clean payload passes through; a corrupted payload is
// re-parsed by the hardened decoder with an exact-consumption check, and a
// failure is reported and skipped — the algorithm treats the wire as
// dropped, which the defective-coloring analysis tolerates.

func asTypeMsg(pay sim.Payload, m, spaceSize int, sink faultReporter) (typeMsg, bool) {
	switch p := pay.(type) {
	case typeMsg:
		return p, true
	case sim.CorruptPayload:
		r := p.Reader()
		msg, err := decodeTypeMsg(r, m, spaceSize)
		if err != nil || r.Remaining() != 0 {
			report(sink)
			return typeMsg{}, false
		}
		return msg, true
	default:
		return typeMsg{}, false
	}
}

func asSetMsg(pay sim.Payload, kprime int, sink faultReporter) (setMsg, bool) {
	switch p := pay.(type) {
	case setMsg:
		return p, true
	case sim.CorruptPayload:
		r := p.Reader()
		msg, err := decodeSetMsg(r, kprime)
		if err != nil || r.Remaining() != 0 {
			report(sink)
			return setMsg{}, false
		}
		return msg, true
	default:
		return setMsg{}, false
	}
}

func asCommitMsg(pay sim.Payload, spaceSize int, sink faultReporter) (commitMsg, bool) {
	switch p := pay.(type) {
	case commitMsg:
		return p, true
	case sim.CorruptPayload:
		r := p.Reader()
		msg, err := decodeCommitMsg(r, spaceSize)
		if err != nil || r.Remaining() != 0 {
			report(sink)
			return commitMsg{}, false
		}
		return msg, true
	default:
		return commitMsg{}, false
	}
}
