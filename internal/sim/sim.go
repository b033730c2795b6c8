// Package sim implements a synchronous message-passing simulator for the
// LOCAL and CONGEST models (Peleg 2000), the execution substrate for every
// distributed algorithm in this repository.
//
// Execution proceeds in synchronous rounds. In each round every node first
// produces its outgoing messages, then the engine routes and delivers
// them, then every node consumes its inbox. The engine measures the exact
// bit size of every message by running its bitio encoding, so CONGEST
// bandwidth claims are checked against real encodings rather than struct
// sizes.
//
// The node space is split into one contiguous range per worker (a shard),
// and each shard runs all three phases for its own nodes on one goroutine,
// with barriers between the phases. A broadcast is encoded once per sender
// per round and routed as one block per destination shard — the sender's
// payload plus its receivers there, a subrange of the sender's neighbor
// list — while bit totals still count every wire. Each shard counting-sorts
// its inbound blocks into its own inbox arena, so every inbox is sorted by
// sender id and the Stats, traces and fault ledgers are bit-identical for
// every worker count. See docs/SIMULATOR.md for the full concurrency
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
	// Outbox is called once per node per round to collect the messages
	// node v sends this round.
	Outbox(v int, out *Outbox)
	// Inbox is called once per node per round with the messages delivered
	// to v, sorted by sender id.
	Inbox(v int, in []Received)
	// Done reports global termination; checked between rounds. It must be
	// safe to call while no Outbox/Inbox call is in flight.
	Done() bool
}

// Quiescent is an optional extension of Algorithm. After any round in which
// no message was delivered anywhere in the network (nothing sent, or every
// message dropped by Fault), the engine calls Quiesced; returning true ends
// the run successfully, exactly as if Done had reported termination. This
// lets flood-style algorithms terminate as soon as the network goes silent
// instead of burning an explicit "quiet round" protocol.
type Quiescent interface {
	Quiesced() bool
}

// Outbox collects one node's outgoing messages for a round. The engine
// hands each Outbox callback a handle that is only valid for that call.
type Outbox struct {
	node      int
	neighbors []int32
	sends     []send
}

// broadcastTo marks a send entry that fans out to every neighbor of the
// sender. Keeping the single entry in the sends list (rather than a
// separate broadcast list) preserves the delivery order of interleaved
// Broadcast and SendTo calls.
const broadcastTo int32 = -1

type send struct {
	to      int32 // receiver id, or broadcastTo
	payload Payload
}

// Broadcast sends p to every neighbor of the node. The engine encodes p
// once and accounts its size once per wire, so broadcasting is O(1) encode
// work regardless of degree.
func (o *Outbox) Broadcast(p Payload) {
	if len(o.neighbors) == 0 {
		return
	}
	o.sends = append(o.sends, send{to: broadcastTo, payload: p})
}

// SendTo sends p to the specific neighbor u; u must be adjacent to the
// node. The fast path does not check adjacency; set Engine.Validate to make
// the engine verify every targeted send against the graph and fail the run
// with a descriptive error on a violation.
func (o *Outbox) SendTo(u int, p Payload) {
	o.sends = append(o.sends, send{to: int32(u), payload: p})
}

// Stats aggregates execution metrics.
type Stats struct {
	Rounds         int   // rounds executed
	Messages       int64 // total messages delivered
	TotalBits      int64 // total bits on all wires
	MaxMessageBits int   // size of the largest single message
	RoundMaxBits   []int // per-round maximum message size
	// Faults is the per-round fault ledger, populated only while a
	// structured FaultModel is installed (len == Rounds then, nil
	// otherwise); the legacy Fault hook never activates it, so fault-free
	// and legacy runs keep their exact seed Stats.
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
// consulted exactly once per wire per round from the shard goroutines, so
// implementations must be safe for concurrent use and must depend only on
// their arguments — that is what makes fault schedules seed-deterministic
// and worker-count independent. The returned salt seeds the choice of
// flipped bit when the outcome is FaultCorrupt (the engine flips bit
// salt mod message length) and is ignored otherwise.
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
	// CountBits disables encoding-based accounting when false (useful for
	// micro-benchmarks where encoding dominates).
	CountBits bool
	// Validate, when true, makes the engine check every SendTo target
	// against the graph's adjacency before routing and fail the run on a
	// violation. The check runs outside the Outbox fast path, so leaving
	// it off costs nothing per send.
	Validate bool
	// Fault is the legacy ad-hoc drop hook, kept for backward
	// compatibility: a message from `from` to `to` in `round` is discarded
	// when Fault returns true. It is invoked exactly once per wire per
	// round, from the shard goroutines: it must be safe for concurrent use
	// and should depend only on its arguments. New code should install a
	// structured, composable schedule from internal/chaos via Faults
	// instead — only Faults activates the Stats.Faults ledger and payload
	// corruption. When both are set, Fault is consulted first and its
	// drops bypass the ledger.
	Fault func(round, from, to int) bool
	// Faults, when non-nil, is the structured fault model consulted once
	// per wire per round (see FaultModel). Installing it activates the
	// per-round fault ledger in Stats.
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
	// the shard goroutines' phase completions.
	shards   []*shard
	chunk    int
	builtN   int
	builtFor int
	done     chan struct{}

	// Per-run state, written by the coordinator between phase barriers.
	alg   Algorithm
	round int
}

// Options bundles optional engine configuration for NewEngineWith.
type Options struct {
	Workers     int  // shard count: contiguous node ranges, one goroutine each (0 = GOMAXPROCS)
	Bandwidth   int  // per-message bit budget (0 = unlimited)
	NoCountBits bool // disable encoding-based bit accounting
	Validate    bool // check SendTo targets against the graph
	// Faults installs a structured fault schedule (see FaultModel and
	// internal/chaos) and activates the Stats.Faults ledger.
	Faults FaultModel
	// Fault is the legacy drop hook (see Engine.Fault).
	Fault func(round, from, to int) bool
	// Tracer installs a round-level execution tracer (see obs.Tracer and
	// docs/OBSERVABILITY.md). nil disables tracing.
	Tracer obs.Tracer
	// Metrics installs a metrics registry the engine reports into. nil
	// disables metrics.
	Metrics *obs.Registry
}

// NewEngine returns an engine over the communication graph g.
func NewEngine(g *graph.Graph) *Engine {
	return &Engine{g: g, workers: runtime.GOMAXPROCS(0), CountBits: true}
}

// NewEngineWith returns an engine over g configured by opts.
func NewEngineWith(g *graph.Graph, opts Options) *Engine {
	e := NewEngine(g)
	if opts.Workers > 0 {
		e.SetWorkers(opts.Workers)
	}
	e.Bandwidth = opts.Bandwidth
	e.CountBits = !opts.NoCountBits
	e.Validate = opts.Validate
	e.Faults = opts.Faults
	e.Fault = opts.Fault
	e.tracer = opts.Tracer
	e.metrics = opts.Metrics
	return e
}

// SetAfterRound installs (or, with nil, removes) the engine's between-
// rounds hook: checkpoint writers and chaos kill schedules chain through
// it (see RoundHook and ChainHooks).
func (e *Engine) SetAfterRound(h RoundHook) { e.afterRound = h }

// SetTracer installs (or, with nil, removes) the engine's round tracer.
// Multi-phase solvers use it to propagate observability onto the fresh
// engines they create for sub-instances.
func (e *Engine) SetTracer(t obs.Tracer) { e.tracer = t }

// Tracer returns the installed round tracer (nil when tracing is off).
func (e *Engine) Tracer() obs.Tracer { return e.tracer }

// SetMetrics installs (or, with nil, removes) the engine's metrics
// registry.
func (e *Engine) SetMetrics(r *obs.Registry) { e.metrics = r }

// Metrics returns the installed metrics registry (nil when metrics are
// off).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// ReportDecodeFault records one detected decode failure (a corrupted or
// truncated payload a receiver rejected) in the current round's fault
// ledger. It is safe to call from concurrent Inbox callbacks; calls made
// while no structured fault model is installed are dropped.
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

// Workers returns the configured worker count (defaults to GOMAXPROCS); benchmark reports record it so figures are comparable
// across machines.
func (e *Engine) Workers() int { return e.workers }

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

// BitsetPayload is a characteristic-vector set message over a universe.
type BitsetPayload struct {
	Set      []int
	Universe int
}

// EncodeBits implements Payload.
func (p BitsetPayload) EncodeBits(w *bitio.Writer) { w.WriteBitset(p.Set, p.Universe) }

// ListPayload encodes a list of values each of fixed width, preceded by a
// varint length (the "send the colors" encoding from Lemma 3.6).
type ListPayload struct {
	Values []int
	Width  int
}

// EncodeBits implements Payload.
func (p ListPayload) EncodeBits(w *bitio.Writer) {
	w.WriteVarint(uint64(len(p.Values)))
	for _, v := range p.Values {
		w.WriteUint(uint64(v), p.Width)
	}
}

// CorruptPayload is what a receiver sees on a wire the fault model
// corrupted: the exact encoded bits of the original message with one bit
// flipped. Receivers that know their wire format can attempt to decode it
// via Reader (internal/oldc does, surfacing failures as DecodeFaults);
// receivers that do not must treat it as an undecodable message and skip
// it. EncodeBits re-emits the damaged bits verbatim, so the corrupted
// message accounts exactly the same size as the original.
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

// Composite concatenates several payloads into one message.
type Composite []Payload

// EncodeBits implements Payload.
func (c Composite) EncodeBits(w *bitio.Writer) {
	for _, p := range c {
		p.EncodeBits(w)
	}
}
