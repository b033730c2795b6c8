// Package sim implements a synchronous message-passing simulator for the
// LOCAL and CONGEST models (Peleg 2000), the execution substrate for every
// distributed algorithm in this repository.
//
// Execution proceeds in synchronous rounds. In each round every node first
// produces its outgoing message, then the engine routes and delivers it,
// then every node consumes its inbox. A node sends at most one message per
// round, to all its neighbors (Outbox.Broadcast), so one table with a slot
// per node is the engine's whole record of a round's traffic. The engine
// measures the exact bit size of every message by running its bitio
// encoding, so CONGEST bandwidth claims are checked against real encodings
// rather than struct sizes.
//
// The node space is split into one contiguous range per worker (a shard),
// and each shard runs all three phases for its own nodes on one goroutine,
// with barriers between the phases. A message is encoded once per sender
// per round while bit totals still count every wire. A shard then gathers
// each of its nodes' inboxes by walking the node's own sorted neighbor
// list, cut down to the neighbors that sent, over the slot table,
// applying a fault model's per-wire verdicts on the way; a node that
// declared in its Outbox that it will not read this round's messages
// (Outbox.IgnoreInbox) gets an empty inbox, and nothing is gathered for
// it. Every inbox holds at most one message per neighbor, in ascending
// sender order, and the Stats, traces and fault ledgers are bit-identical
// for every worker count. See docs/SIMULATOR.md for the full concurrency
// contract.
//
// The per-node callbacks of an Algorithm must only touch the state of the
// node they are invoked for (plus read-only shared configuration); the
// engine invokes them concurrently.
package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Payload is a message body. EncodeBits must write the full wire encoding;
// the engine uses it for bandwidth accounting. A Payload handed to
// Broadcast is encoded once and delivered to every neighbor, so it must not
// be mutated after being passed to an Outbox.
type Payload interface {
	EncodeBits(w *bitio.Writer)
}

// Received is a delivered message.
type Received struct {
	From    int
	Payload Payload
}

// Algorithm is a distributed algorithm over all nodes of a network.
type Algorithm interface {
	// Outbox is called once per node per round to collect the message
	// node v broadcasts this round, if any (see Outbox.Broadcast).
	Outbox(v int, out *Outbox)
	// Inbox is called once per node per round with the messages delivered
	// to v: at most one per neighbor, in ascending sender order, or none
	// when v's Outbox called IgnoreInbox this round. in is valid only
	// during the call: the engine reuses its storage for the next node.
	Inbox(v int, in []Received)
	// Done reports global termination; checked between rounds. It must be
	// safe to call while no Outbox/Inbox call is in flight.
	Done() bool
}

// Quiescent is an optional extension of Algorithm. After any round in which
// no message was delivered anywhere in the network (nothing sent, or every
// message dropped by the fault model), the engine calls Quiesced;
// returning true ends the run successfully, exactly as if Done had
// reported termination. This lets flood-style algorithms terminate as soon
// as the network goes silent instead of burning an explicit "quiet round"
// protocol.
type Quiescent interface {
	Quiesced() bool
}

// Outbox takes one node's message for a round. The engine hands each
// Outbox callback a handle that is only valid for that call.
type Outbox struct {
	payload Payload
	calls   int  // Broadcast calls in this callback; collect rejects a second
	ignore  bool // IgnoreInbox was called
}

// Broadcast sends p to every neighbor of the node. The engine encodes p
// once and accounts its size once per wire, so broadcasting is O(1) encode
// work regardless of degree. A node sends at most one message per round;
// to send several values, it broadcasts one payload whose EncodeBits
// writes them all. A second Broadcast in one round is a programmer error:
// Run panics with a message that names the node and the round. A nil p
// keeps the node silent, and so does having no neighbors.
func (o *Outbox) Broadcast(p Payload) {
	o.payload = p
	o.calls++
}

// IgnoreInbox declares that the node will not read the messages delivered
// to it this round: its Inbox callback still runs, once, but with an empty
// inbox, and the engine gathers nothing for it. A node calls it when its
// Inbox would return at once on state that only its own Inbox changes (a
// decided node, say). It changes nothing else: the node's own Broadcast is
// delivered as usual, and every wire into the node is still accounted in
// Stats, traces and the fault ledger.
func (o *Outbox) IgnoreInbox() { o.ignore = true }

// Stats aggregates execution metrics.
type Stats struct {
	Rounds         int   // rounds executed
	Messages       int64 // total messages delivered
	TotalBits      int64 // total bits on all wires
	MaxMessageBits int   // size of the largest single message
	RoundMaxBits   []int // per-round maximum message size
	// Faults is the per-round fault ledger, populated only while a
	// FaultModel is installed (len == Rounds then, nil otherwise), so
	// fault-free runs keep their exact seed Stats.
	Faults []RoundFaults
}

// RoundFaults is one round's entry in the fault ledger. All fields merge
// with sums across shards, so the ledger is bit-identical for every worker
// count.
type RoundFaults struct {
	Dropped      int64 // wires dropped by the fault model
	Corrupted    int64 // wires delivered with flipped payload bits
	DecodeFaults int64 // corrupted payloads the receivers detected and rejected
}

// Add merges another phase's statistics into s and returns the result,
// summing rounds/messages/bits and taking the max of message sizes.
func (s Stats) Add(o Stats) Stats {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.TotalBits += o.TotalBits
	if o.MaxMessageBits > s.MaxMessageBits {
		s.MaxMessageBits = o.MaxMessageBits
	}
	s.RoundMaxBits = append(s.RoundMaxBits, o.RoundMaxBits...)
	s.Faults = append(s.Faults, o.Faults...)
	return s
}

// TotalFaults sums the ledger over all rounds.
func (s Stats) TotalFaults() RoundFaults {
	var t RoundFaults
	for _, f := range s.Faults {
		t.Dropped += f.Dropped
		t.Corrupted += f.Corrupted
		t.DecodeFaults += f.DecodeFaults
	}
	return t
}

// TraceTotals converts the statistics to the obs end-event totals that a
// trace's per-round events reconcile against (see obs.Reconcile).
func (s Stats) TraceTotals() obs.Totals {
	f := s.TotalFaults()
	return obs.Totals{
		Rounds:       s.Rounds,
		Messages:     s.Messages,
		Bits:         s.TotalBits,
		MaxBits:      s.MaxMessageBits,
		Dropped:      f.Dropped,
		Corrupted:    f.Corrupted,
		DecodeFaults: f.DecodeFaults,
	}
}

// FaultOutcome is a fault model's decision for one wire in one round.
type FaultOutcome uint8

const (
	// FaultNone delivers the message untouched.
	FaultNone FaultOutcome = iota
	// FaultDrop discards the message.
	FaultDrop
	// FaultCorrupt delivers the message with a bit of its encoded payload
	// flipped: the receiver gets a CorruptPayload carrying the damaged
	// bits instead of the original value.
	FaultCorrupt
)

// FaultModel is a structured, composable fault schedule (internal/chaos
// provides the standard implementations: i.i.d. drops, targeted wire
// adversaries, crash and crash-recover node faults, bit flips). Wire is
// consulted from the shard goroutines at most twice per wire per round:
// once when the wire is accounted, and once more when the receiver's inbox
// is gathered, which it is not for a receiver that ignores its inbox
// (Outbox.IgnoreInbox). Implementations must therefore be safe for
// concurrent use and must be pure functions of their arguments — that is
// what makes both answers agree and fault schedules seed-deterministic and
// worker-count independent. The returned salt seeds the choice of flipped
// bit when the outcome is FaultCorrupt (the engine flips bit salt mod
// message length) and is ignored otherwise.
//
// Round numbers restart at 0 for every Engine.Run invocation; multi-phase
// solvers (e.g. oldc.Solve) therefore expose fault schedules to each phase
// with a fresh round clock.
type FaultModel interface {
	Wire(round, from, to int) (FaultOutcome, uint64)
}

// Engine executes algorithms over a fixed communication graph. One Engine
// runs one Run at a time; distinct engines may run concurrently.
type Engine struct {
	g       *graph.Graph
	workers int
	// Bandwidth, when > 0, makes Run fail if any single message exceeds
	// this many bits (CONGEST assertion mode).
	Bandwidth int
	// Faults, when non-nil, is the fault model that drops and corrupts
	// wires (see FaultModel). Installing it activates the per-round fault
	// ledger in Stats.
	Faults FaultModel

	// tracer receives one obs round event per round plus whatever phase
	// events the algorithm layers emit. nil disables tracing entirely: the
	// round loop then takes the exact pre-observability code path.
	tracer obs.Tracer
	// metrics receives the engine's counter/gauge/histogram updates
	// (rounds, messages, bits, fault ledger). nil disables metrics.
	metrics *obs.Registry
	// afterRound runs between rounds after each round's accounting is
	// merged (see RoundHook); nil keeps the loop on the hook-free path.
	afterRound RoundHook

	// decodeFaults counts ReportDecodeFault calls during the current
	// round's Inbox phase; the engine drains it into the ledger.
	decodeFaults atomic.Int64

	// Routing state (see round.go): one shard per worker, built by the
	// first run and kept for later ones until the node count or the worker
	// count changes (builtN, builtFor record both at build time). chunk is
	// the shard width: node v belongs to shards[v/chunk]. done collects
	// the shard goroutines' phase completions. slots[v] is the message
	// node v broadcast this round (nil when it sent none), and sent[v] is
	// 1 exactly when slots[v] is non-nil; collect writes both for its own
	// nodes, and other shards read them after the route barrier. ignore[v]
	// records that v called Outbox.IgnoreInbox this round; only v's own
	// shard writes and reads it.
	shards   []*shard
	chunk    int
	builtN   int
	builtFor int
	done     chan struct{}
	slots    []Payload
	sent     []uint8
	ignore   []bool

	// Per-run state, written by the coordinator between phase barriers.
	// allSent records that every node sent something this round.
	alg     Algorithm
	round   int
	allSent bool
}

// Options bundles optional engine configuration for NewEngineWith.
type Options struct {
	Workers   int // shard count: contiguous node ranges, one goroutine each (0 = GOMAXPROCS)
	Bandwidth int // per-message bit budget (0 = unlimited)
	// Faults installs a structured fault schedule (see FaultModel and
	// internal/chaos) and activates the Stats.Faults ledger.
	Faults FaultModel
	// Tracer installs a round-level execution tracer (see obs.Tracer and
	// docs/OBSERVABILITY.md). nil disables tracing.
	Tracer obs.Tracer
	// Metrics installs a metrics registry the engine reports into. nil
	// disables metrics.
	Metrics *obs.Registry
}

// NewEngine returns an engine over the communication graph g.
func NewEngine(g *graph.Graph) *Engine {
	return &Engine{g: g, workers: runtime.GOMAXPROCS(0)}
}

// NewEngineWith returns an engine over g configured by opts.
func NewEngineWith(g *graph.Graph, opts Options) *Engine {
	e := NewEngine(g)
	if opts.Workers > 0 {
		e.SetWorkers(opts.Workers)
	}
	e.Bandwidth = opts.Bandwidth
	e.Faults = opts.Faults
	e.tracer = opts.Tracer
	e.metrics = opts.Metrics
	return e
}

// SetAfterRound installs (or, with nil, removes) the engine's between-
// rounds hook: checkpoint writers and chaos kill schedules chain through
// it (see RoundHook and ChainHooks).
func (e *Engine) SetAfterRound(h RoundHook) { e.afterRound = h }

// Tracer returns the installed round tracer (nil when tracing is off).
func (e *Engine) Tracer() obs.Tracer { return e.tracer }

// Metrics returns the installed metrics registry (nil when metrics are
// off).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// ReportDecodeFault records one detected decode failure (a corrupted or
// truncated payload a receiver rejected) in the current round's fault
// ledger. It is safe to call from concurrent Inbox callbacks; calls made
// while no fault model is installed are dropped.
func (e *Engine) ReportDecodeFault() {
	e.decodeFaults.Add(1)
}

// SetWorkers overrides the worker count, which is the number of shards
// the node space is split into (1 forces fully sequential execution;
// useful to pin down scheduling-independent behavior in tests). Stats are
// identical for every worker count: per-shard accounting merges with
// order-independent operations only. The next run re-partitions.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Graph returns the communication graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// ErrBandwidth is returned wrapped by Run when a message exceeds the
// configured bandwidth.
type ErrBandwidth struct {
	Round, From, To, Bits, Limit int
}

// Error implements the error interface.
func (e *ErrBandwidth) Error() string {
	return fmt.Sprintf("sim: round %d message %d->%d is %d bits, exceeds bandwidth %d",
		e.Round, e.From, e.To, e.Bits, e.Limit)
}

// --- Common payloads ---

// UintPayload is a fixed-width unsigned integer message.
type UintPayload struct {
	Value uint64
	Width int
}

// EncodeBits implements Payload.
func (p UintPayload) EncodeBits(w *bitio.Writer) { w.WriteUint(p.Value, p.Width) }

// VarintPayload is a self-delimiting integer message.
type VarintPayload struct{ Value uint64 }

// EncodeBits implements Payload.
func (p VarintPayload) EncodeBits(w *bitio.Writer) { w.WriteVarint(p.Value) }

// CorruptPayload is what a receiver sees on a wire the fault model
// corrupted: the exact encoded bits of the original message with one bit
// flipped. Receivers that know their wire format re-parse it through
// Reparse, which surfaces failures as DecodeFaults; receivers that do not
// must treat it as an undecodable message and skip it. EncodeBits re-emits
// the damaged bits verbatim, so the corrupted message accounts exactly the
// same size as the original.
type CorruptPayload struct {
	Bits []byte
	NBit int
}

// EncodeBits implements Payload.
func (p CorruptPayload) EncodeBits(w *bitio.Writer) {
	r := bitio.NewReader(p.Bits, p.NBit)
	for i := 0; i < p.NBit; i++ {
		w.WriteBit(r.ReadBit())
	}
}

// Reader returns a bitio.Reader over the corrupted bits.
func (p CorruptPayload) Reader() *bitio.Reader { return bitio.NewReader(p.Bits, p.NBit) }

// FaultSink receives the decode failures receivers detect; *Engine and
// every Runner implement it (ReportDecodeFault feeds the fault ledger).
type FaultSink interface{ ReportDecodeFault() }

// Reparse is the corrupted-wire rule of the hardened receivers, for a
// payload that is not the message kind the round schedule expects. A
// CorruptPayload is re-parsed by decode, which must consume its bits
// exactly; a failure is reported to sink (which may be nil) and the wire
// is treated as dropped, which the defective-coloring analyses tolerate.
// Any other payload breaks the round schedule and is skipped unreported.
// Reparse reports whether decode accepted the payload.
func Reparse(pay Payload, sink FaultSink, decode func(*bitio.Reader) error) bool {
	c, ok := pay.(CorruptPayload)
	if !ok {
		return false
	}
	r := c.Reader()
	if decode(r) == nil && r.Remaining() == 0 {
		return true
	}
	if sink != nil {
		sink.ReportDecodeFault()
	}
	return false
}

// AsUint resolves an index or color message, sent as a UintPayload of
// bitio.WidthFor(bound) bits, to its value. A clean UintPayload passes
// through. Any other payload goes to Reparse, which accepts a corrupted
// one only when its bits decode to a value below bound (any value when
// bound ≤ 0). Each round of a hardened algorithm carries one message kind,
// so the round schedule, not the payload's Go type, says which bound
// applies. The value is valid only when the bool is true.
func AsUint(pay Payload, bound int, sink FaultSink) (int, bool) {
	if p, ok := pay.(UintPayload); ok {
		return int(p.Value), true
	}
	var x uint64
	ok := Reparse(pay, sink, func(r *bitio.Reader) error {
		x = r.ReadUint(bitio.WidthFor(bound))
		if r.Err() != nil {
			return &DecodeError{Kind: "sim uint", Reason: "truncated", Err: r.Err()}
		}
		if bound > 0 && x >= uint64(bound) {
			return &DecodeError{Kind: "sim uint", Reason: "value outside [0, bound)"}
		}
		return nil
	})
	return int(x), ok
}

// DecodeError reports a wire payload that failed to parse as the message
// kind its receiver expects: truncated, syntactically malformed, or
// carrying a field outside the range the shared parameters allow.
type DecodeError struct {
	Kind   string // the message kind, named with its package ("oldc type")
	Reason string // what was wrong
	Err    error  // underlying bitio error, if any
}

// Error describes the malformed message, including the underlying bitio
// error when there is one.
func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("bad %s message: %s: %v", e.Kind, e.Reason, e.Err)
	}
	return fmt.Sprintf("bad %s message: %s", e.Kind, e.Reason)
}

// Unwrap exposes the underlying bitio error for errors.Is/As chains.
func (e *DecodeError) Unwrap() error { return e.Err }
