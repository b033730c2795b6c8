// Package obs is the observability layer of the repository: a round-level
// execution tracer (schema ldc-trace/v1) and a lightweight metrics
// registry with a Prometheus-style text export. The simulator engine and
// the algorithm layers emit into it; the package itself depends only on
// the standard library so every layer can import it without cycles.
//
// The design contract is zero overhead when disabled: a nil Tracer and a
// nil *Registry compile to the exact pre-observability code paths (the
// engine guards every emission behind a nil check), so golden and
// determinism tests are unaffected by this package's existence.
//
// When enabled, every emission happens from the engine's single-threaded
// round loop after the order-independent shard merge, so a trace is
// byte-identical for every worker count — the same guarantee sim.Stats
// carries. See docs/OBSERVABILITY.md for the full schema and the metrics
// catalog.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceSchema identifies the trace format emitted by the JSONL sink. The
// first line of every trace is a "start" event carrying this string.
const TraceSchema = "ldc-trace/v1"

// RunInfo is the metadata of a traced run, emitted once as the "start"
// event (the header line of a trace file).
type RunInfo struct {
	Algo      string // algorithm name (CLI -algo value or harness label)
	Graph     string // graph family
	N         int    // node count
	M         int    // edge count
	MaxDegree int    // Δ of the communication graph
	Seed      int64  // generator seed
}

// Attrs carries the structured key→value payload of a phase event.
// encoding/json marshals maps with sorted keys, so attrs are
// byte-deterministic in the JSONL output.
type Attrs map[string]int

// RoundInfo is one simulator round's accounting, emitted as a "round"
// event. All fields are derived from the engine's order-independent shard
// merge, so they are identical for every worker count.
type RoundInfo struct {
	Round        int   // engine-local round number (restarts at 0 per Run)
	Active       int   // nodes that queued at least one send this round
	Messages     int64 // messages delivered (drops excluded)
	Bits         int64 // total bits on all delivered wires this round
	MaxBits      int   // largest single message this round
	Dropped      int64 // wires dropped by the structured fault model
	Corrupted    int64 // wires delivered with flipped payload bits
	DecodeFaults int64 // corrupted payloads the receivers detected
}

// Totals is the final accounting of a traced run, emitted as the "end"
// event. Per-round events must reconcile with it exactly: Σ bits ==
// Bits, Σ msgs == Messages, max(maxbits) == MaxBits (cmd/ldc-trace
// checks this).
type Totals struct {
	Rounds       int   // rounds reported by the run (may exceed traced rounds when a layer adds synthetic rounds)
	Messages     int64 // total messages delivered
	Bits         int64 // total bits on all wires
	MaxBits      int   // largest single message of the run
	Dropped      int64 // fault-ledger drop total
	Corrupted    int64 // fault-ledger corruption total
	DecodeFaults int64 // fault-ledger detected-decode-failure total
}

// Tracer receives the events of a traced run. Implementations must accept
// calls from the engine's round loop and from the (sequential) algorithm
// layers between runs; the JSONL sink serializes with a mutex so a single
// tracer can be shared by every engine of a multi-phase pipeline.
//
// A nil Tracer disables tracing: every emitter in the repository guards
// its calls with a nil check (the Emit* helpers below do it for you).
type Tracer interface {
	// Start records the run metadata (the trace header).
	Start(info RunInfo)
	// Phase records a phase transition of a layered solver (γ-class
	// selection, a color-space-reduction level, a repair retry, …).
	Phase(name string, attrs Attrs)
	// Round records one simulator round.
	Round(r RoundInfo)
	// End records the final totals the per-round events reconcile against.
	End(t Totals)
}

// EmitStart forwards to t.Start when t is non-nil.
func EmitStart(t Tracer, info RunInfo) {
	if t != nil {
		t.Start(info)
	}
}

// EmitPhase forwards to t.Phase when t is non-nil.
func EmitPhase(t Tracer, name string, attrs Attrs) {
	if t != nil {
		t.Phase(name, attrs)
	}
}

// --- JSONL sink ---

// startLine / phaseLine / roundLine / endLine are the wire forms of the
// four event kinds. Field order is fixed by the struct definitions and
// map keys are sorted by encoding/json, so the emitted bytes are a pure
// function of the event values.
type startLine struct {
	Schema string `json:"schema"`
	T      string `json:"t"`
	Algo   string `json:"algo,omitempty"`
	Graph  string `json:"graph,omitempty"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
	MaxDeg int    `json:"max_degree,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

type phaseLine struct {
	T     string `json:"t"`
	Name  string `json:"name"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

type roundLine struct {
	T            string `json:"t"`
	Round        int    `json:"round"`
	Active       int    `json:"active"`
	Messages     int64  `json:"msgs"`
	Bits         int64  `json:"bits"`
	MaxBits      int    `json:"maxbits"`
	Dropped      int64  `json:"dropped,omitempty"`
	Corrupted    int64  `json:"corrupted,omitempty"`
	DecodeFaults int64  `json:"decodefaults,omitempty"`
}

type endLine struct {
	T            string `json:"t"`
	Rounds       int    `json:"rounds"`
	Messages     int64  `json:"msgs"`
	Bits         int64  `json:"bits"`
	MaxBits      int    `json:"maxbits"`
	Dropped      int64  `json:"dropped,omitempty"`
	Corrupted    int64  `json:"corrupted,omitempty"`
	DecodeFaults int64  `json:"decodefaults,omitempty"`
}

// JSONL is a Tracer writing one JSON object per line in the ldc-trace/v1
// schema. Writes are buffered; call Close (or Flush) before reading the
// underlying writer. Safe for use by multiple engines of one pipeline
// (emissions are serialized by a mutex); the event order is the
// sequential order of the pipeline's phases and rounds.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONL returns a JSONL tracer writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// emit marshals v and appends it as one line, capturing the first error.
func (j *JSONL) emit(v any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.err = j.w.WriteByte('\n')
}

// Start implements Tracer.
func (j *JSONL) Start(info RunInfo) {
	j.emit(startLine{
		Schema: TraceSchema, T: "start",
		Algo: info.Algo, Graph: info.Graph,
		N: info.N, M: info.M, MaxDeg: info.MaxDegree, Seed: info.Seed,
	})
}

// Phase implements Tracer.
func (j *JSONL) Phase(name string, attrs Attrs) {
	j.emit(phaseLine{T: "phase", Name: name, Attrs: attrs})
}

// Round implements Tracer.
func (j *JSONL) Round(r RoundInfo) {
	j.emit(roundLine{
		T: "round", Round: r.Round, Active: r.Active,
		Messages: r.Messages, Bits: r.Bits, MaxBits: r.MaxBits,
		Dropped: r.Dropped, Corrupted: r.Corrupted, DecodeFaults: r.DecodeFaults,
	})
}

// End implements Tracer.
func (j *JSONL) End(t Totals) {
	j.emit(endLine{
		T: "end", Rounds: t.Rounds, Messages: t.Messages,
		Bits: t.Bits, MaxBits: t.MaxBits,
		Dropped: t.Dropped, Corrupted: t.Corrupted, DecodeFaults: t.DecodeFaults,
	})
}

// Flush writes buffered events to the underlying writer and returns the
// first error seen so far.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ferr := j.w.Flush(); j.err == nil {
		j.err = ferr
	}
	return j.err
}

// Close flushes the sink. The underlying writer is not closed (the caller
// owns it).
func (j *JSONL) Close() error { return j.Flush() }

// --- Trace parsing (the read side used by cmd/ldc-trace and tests) ---

// TraceEvent is one decoded line of an ldc-trace/v1 file: exactly one of
// the pointer fields is set according to T.
type TraceEvent struct {
	T     string // "start" | "phase" | "round" | "end"
	Start *RunInfo
	Name  string // phase name (T == "phase")
	Attrs Attrs  // phase attrs (T == "phase")
	Round *RoundInfo
	End   *Totals
}

// ParseTrace decodes an ldc-trace/v1 stream. It fails on malformed JSON,
// an unknown event kind, or a header carrying the wrong schema; an absent
// header is allowed so partial traces remain inspectable.
func ParseTrace(r io.Reader) ([]TraceEvent, error) {
	var events []TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind struct {
			T      string `json:"t"`
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		switch kind.T {
		case "start":
			if kind.Schema != TraceSchema {
				return nil, fmt.Errorf("obs: trace line %d: schema %q, want %q", lineNo, kind.Schema, TraceSchema)
			}
			var l startLine
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			events = append(events, TraceEvent{T: "start", Start: &RunInfo{
				Algo: l.Algo, Graph: l.Graph, N: l.N, M: l.M, MaxDegree: l.MaxDeg, Seed: l.Seed,
			}})
		case "phase":
			var l phaseLine
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			events = append(events, TraceEvent{T: "phase", Name: l.Name, Attrs: l.Attrs})
		case "round":
			var l roundLine
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			events = append(events, TraceEvent{T: "round", Round: &RoundInfo{
				Round: l.Round, Active: l.Active, Messages: l.Messages, Bits: l.Bits,
				MaxBits: l.MaxBits, Dropped: l.Dropped, Corrupted: l.Corrupted, DecodeFaults: l.DecodeFaults,
			}})
		case "end":
			var l endLine
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			events = append(events, TraceEvent{T: "end", End: &Totals{
				Rounds: l.Rounds, Messages: l.Messages, Bits: l.Bits, MaxBits: l.MaxBits,
				Dropped: l.Dropped, Corrupted: l.Corrupted, DecodeFaults: l.DecodeFaults,
			}})
		default:
			return nil, fmt.Errorf("obs: trace line %d: unknown event kind %q", lineNo, kind.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}

// Reconcile checks the trace invariant: the per-round events must sum to
// the end event's totals (bits and messages exactly; max of maxbits; the
// fault ledger component-wise). Rounds may legitimately differ when a
// layer reports synthetic rounds that never touched an engine (e.g. the
// Theorem 1.3 fallback schedule), so the round count is only checked to
// be ≥ the traced rounds. Returns nil when the trace has no end event.
func Reconcile(events []TraceEvent) error {
	var sum Totals
	var end *Totals
	for _, e := range events {
		switch e.T {
		case "round":
			sum.Rounds++
			sum.Messages += e.Round.Messages
			sum.Bits += e.Round.Bits
			if e.Round.MaxBits > sum.MaxBits {
				sum.MaxBits = e.Round.MaxBits
			}
			sum.Dropped += e.Round.Dropped
			sum.Corrupted += e.Round.Corrupted
			sum.DecodeFaults += e.Round.DecodeFaults
		case "end":
			end = e.End
		}
	}
	if end == nil {
		return nil
	}
	if sum.Messages != end.Messages {
		return fmt.Errorf("obs: trace messages %d != end total %d", sum.Messages, end.Messages)
	}
	if sum.Bits != end.Bits {
		return fmt.Errorf("obs: trace bits %d != end total %d", sum.Bits, end.Bits)
	}
	if sum.MaxBits != end.MaxBits {
		return fmt.Errorf("obs: trace max message %d bits != end total %d", sum.MaxBits, end.MaxBits)
	}
	if sum.Dropped != end.Dropped || sum.Corrupted != end.Corrupted || sum.DecodeFaults != end.DecodeFaults {
		return fmt.Errorf("obs: trace fault ledger (%d,%d,%d) != end totals (%d,%d,%d)",
			sum.Dropped, sum.Corrupted, sum.DecodeFaults, end.Dropped, end.Corrupted, end.DecodeFaults)
	}
	if sum.Rounds > end.Rounds {
		return fmt.Errorf("obs: trace has %d round events but the end total declares only %d rounds", sum.Rounds, end.Rounds)
	}
	return nil
}
