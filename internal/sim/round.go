package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/obs"
)

// Runner is the execution substrate an algorithm layer runs on. *Engine is
// the implementation; layers that take a Runner let callers wrap the
// engine (the benchmark's timing wrapper does) without changing the
// algorithm code.
type Runner interface {
	// Run executes alg until Done or maxRounds (see Engine.Run).
	Run(alg Algorithm, maxRounds int) (Stats, error)
	// FaultSink's ReportDecodeFault records one detected decode failure in
	// the current round's fault ledger; safe from concurrent Inbox
	// callbacks.
	FaultSink
}

var _ Runner = (*Engine)(nil)

// writerPool recycles bitio.Writers across runs and engines so that bit
// accounting stays allocation-free for engines built per run.
var writerPool = sync.Pool{New: func() any { return bitio.NewWriter() }}

// phase selects which part of a round a shard executes next. The
// coordinator (the goroutine calling Run) hands every shard the same phase
// and waits for all of them, so phase boundaries are full barriers: every
// shard finishes collecting before any routes, and finishes routing before
// any delivers.
type phase uint8

const (
	phaseCollect phase = iota // run Outbox callbacks, fill slots
	phaseRoute                // encode, account, count faulted wires
	phaseDeliver              // gather inboxes, run Inbox callbacks
	phaseExit                 // end the shard goroutine
)

// shard is one worker: a contiguous node range and all the routing state
// its goroutine owns. Exactly one goroutine touches a shard's mutable state
// in a phase; other shards read its nodes' slots and sent bytes only in
// the deliver phase, after the route barrier.
//
// The goroutine writes its shard for every node (the Outbox handle, the
// inbox buffer, the counters), so the two pads keep those fields off the
// cache lines of the objects allocated next to it, other shards among
// them, whatever the struct's size and alignment.
type shard struct {
	_ [64]byte

	id     int
	lo, hi int // owned node range [lo, hi)

	ob      Outbox // collection handle, reset for each local node
	w       *bitio.Writer
	inbox   []Received // one node's inbox, reused for the next
	senders []int32    // one node's neighbors that sent, reused for the next

	// Per-round accounting, merged by the coordinator with sums and maxes
	// only, so merged Stats are bit-identical for every shard count.
	messages  int64
	totalBits int64
	roundMax  int
	dropped   int64
	corrupted int64
	boundary  int64 // wires to other shards; only metrics read it, so fault-free rounds count it only for them
	active    int   // local nodes that sent something this round
	bwErr     *ErrBandwidth
	panicked  any // value of a panic recovered in the last phase, re-raised by Engine.phase

	cmd chan phase

	_ [64]byte
}

// partition splits n nodes into contiguous shards of width chunk, one per
// worker (clamped to n); node v belongs to shard v/chunk.
func partition(n, workers int) (chunk, count int) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		return 1, 1
	}
	chunk = (n + workers - 1) / workers
	return chunk, (n + chunk - 1) / chunk
}

// prepare builds the slot table and the per-shard state on the first run
// and keeps them for later runs, re-partitioning only when the node count
// or the worker count has changed since they were built. Buffers sized by
// degree (inbox, senders) grow on demand and are reused from then on.
func (e *Engine) prepare() {
	n := e.g.N()
	if e.shards != nil && e.builtN == n && e.builtFor == e.workers {
		return
	}
	chunk, count := partition(n, e.workers)
	e.chunk, e.builtN, e.builtFor = chunk, n, e.workers
	e.slots = make([]Payload, n)
	e.sent = make([]uint8, n)
	e.ignore = make([]bool, n)
	e.shards = make([]*shard, count)
	for i := range e.shards {
		lo := min(i*chunk, n)
		hi := min(lo+chunk, n)
		e.shards[i] = &shard{id: i, lo: lo, hi: hi, cmd: make(chan phase)}
	}
	e.done = make(chan struct{}, count)
}

// Census returns the partition census of the engine's graph under its
// current worker count: ghostNodes sums, over the shards, the distinct
// nodes outside the shard that its nodes' neighbor lists reference (the
// replication a distributed deployment would pay), and boundaryEdges
// counts the edges whose endpoints lie on different shards. It walks the
// whole adjacency, so the engine computes it only for a metrics registry.
func (e *Engine) Census() (ghostNodes, boundaryEdges int64) {
	n := e.g.N()
	chunk, count := partition(n, e.workers)
	seen := make([]uint64, (n+63)/64)
	for s := 0; s < count; s++ {
		clear(seen)
		lo, hi := min(s*chunk, n), min((s+1)*chunk, n)
		for v := lo; v < hi; v++ {
			for _, u := range e.g.Neighbors(v) {
				if int(u) >= lo && int(u) < hi {
					continue
				}
				if v < int(u) {
					boundaryEdges++
				}
				if bit := uint64(1) << (uint(u) & 63); seen[u>>6]&bit == 0 {
					seen[u>>6] |= bit
					ghostNodes++
				}
			}
		}
	}
	return ghostNodes, boundaryEdges
}

// loop is the body of shard goroutines 1..S-1 for the duration of a run;
// the coordinator executes shard 0 itself.
func (sh *shard) loop(e *Engine) {
	for p := range sh.cmd {
		if p == phaseExit {
			return
		}
		sh.run(e, p)
		e.done <- struct{}{}
	}
}

// run executes one phase for the shard's nodes. A panic in it (a callback's,
// typically) is recovered into sh.panicked for Engine.phase to re-raise, so
// it never takes down a worker goroutine and with it the process.
func (sh *shard) run(e *Engine, p phase) {
	defer func() { sh.panicked = recover() }()
	switch p {
	case phaseCollect:
		sh.collect(e)
	case phaseRoute:
		sh.route(e)
	case phaseDeliver:
		sh.gather(e)
	}
}

// phase runs one phase on every shard and returns once all have finished.
// It then re-raises the first recovered panic in shard order on the
// caller's goroutine, where Run's caller can recover it; the barrier is
// complete by then, so the engine runs normally afterwards.
func (e *Engine) phase(p phase) {
	for _, sh := range e.shards[1:] {
		sh.cmd <- p
	}
	e.shards[0].run(e, p)
	for range e.shards[1:] {
		<-e.done
	}
	for _, sh := range e.shards {
		if r := sh.panicked; r != nil {
			panic(r)
		}
	}
}

// collect runs the Outbox callback for every local node and records its
// round in the slot table: slots[v] is the payload v broadcast, nil when
// it broadcast none, a nil payload or has no neighbors, and sent[v] is 1
// exactly when the slot is non-nil; ignore[v] records whether v called
// IgnoreInbox. A node that broadcasts twice panics here, naming the node
// and the round.
func (sh *shard) collect(e *Engine) {
	alg := e.alg
	sh.active = 0
	ob := &sh.ob
	for v := sh.lo; v < sh.hi; v++ {
		*ob = Outbox{}
		alg.Outbox(v, ob)
		if ob.calls > 1 {
			panic(fmt.Sprintf("sim: round %d: node %d called Broadcast %d times; a node sends at most one message per round", e.round, v, ob.calls))
		}
		slot := ob.payload
		if e.g.Degree(v) == 0 {
			slot = nil // no wire to send on
		}
		var sent uint8
		if slot != nil {
			sent = 1
			sh.active++
		}
		e.slots[v], e.sent[v], e.ignore[v] = slot, sent, ob.ignore
	}
	ob.payload = nil
}

// route encodes and accounts the shard's outgoing messages. Each slot is
// encoded exactly once (a broadcast costs one EncodeBits regardless of
// degree) while accounting charges it to every wire; receivers then
// gather from the slot table. Under a fault model every wire has its own
// verdict, so faultWires accounts the wires one by one.
func (sh *shard) route(e *Engine) {
	round := e.round
	sh.messages, sh.totalBits, sh.roundMax = 0, 0, 0
	sh.dropped, sh.corrupted, sh.boundary = 0, 0, 0
	sh.bwErr = nil
	w := sh.w
	for v := sh.lo; v < sh.hi; v++ {
		p := e.slots[v]
		if p == nil {
			continue
		}
		w.Reset()
		p.EncodeBits(w)
		bits := w.Len()
		nbr := e.g.Neighbors(v)
		if e.Faults != nil {
			sh.faultWires(e, round, v, nbr, bits)
			continue
		}
		sh.account(e, round, v, nbr, bits)
		if e.metrics != nil {
			// nbr is ascending, so the wires that stay on this shard are
			// one run of it.
			lo, _ := slices.BinarySearch(nbr, int32(sh.lo))
			hi, _ := slices.BinarySearch(nbr, int32(sh.hi))
			sh.boundary += int64(len(nbr) - (hi - lo))
		}
	}
}

// account charges the wires to targets of one bits-long message from v
// against the shard's round accounting: message count, bit totals, and the
// bandwidth assertion, which names the first of the wires. Only a
// violation reads targets[0]: for a broadcast it is the sender's first
// neighbor, one cache miss per sender that accounting does not need.
func (sh *shard) account(e *Engine, round, v int, targets []int32, bits int) {
	sh.messages += int64(len(targets))
	sh.totalBits += int64(bits) * int64(len(targets))
	if bits > sh.roundMax {
		sh.roundMax = bits
	}
	if e.Bandwidth > 0 && bits > e.Bandwidth && sh.bwErr == nil {
		sh.bwErr = &ErrBandwidth{Round: round, From: v, To: int(targets[0]), Bits: bits, Limit: e.Bandwidth}
	}
}

// faultWires accounts one message wire by wire under the fault model: a
// dropped wire counts only in the ledger, a corrupted one in the ledger and
// as delivered with its original size. faultInbox asks the model again when
// the wire's message is gathered, which it is not for a receiver that
// ignores its inbox.
func (sh *shard) faultWires(e *Engine, round, v int, targets []int32, bits int) {
	for i, u := range targets {
		switch outcome, _ := e.Faults.Wire(round, v, int(u)); outcome {
		case FaultDrop:
			sh.dropped++
			continue
		case FaultCorrupt:
			sh.corrupted++
		}
		sh.account(e, round, v, targets[i:i+1], bits)
		if int(u)/e.chunk != sh.id {
			sh.boundary++
		}
	}
}

// gather builds each local node's inbox in the shard's reused inbox buffer
// and runs the node's Inbox callback. It walks the node's sorted neighbors
// that sent this round (all of them when every node sent, else
// compactSenders' selection), so every slot it reads is non-nil and every
// inbox holds one message per sending neighbor, in ascending sender
// order. Under a fault model, faultInbox then applies each message's wire
// verdict. A node that ignores its inbox this round gets an empty one
// without any of that work; its Inbox still runs, so every node's runs
// exactly once per round.
func (sh *shard) gather(e *Engine) {
	alg, slots := e.alg, e.slots
	for v := sh.lo; v < sh.hi; v++ {
		if e.ignore[v] {
			alg.Inbox(v, nil)
			continue
		}
		senders := e.g.Neighbors(v)
		if !e.allSent {
			senders = sh.compactSenders(senders, e.sent)
		}
		in := sh.inbox[:0]
		for _, u := range senders {
			in = append(in, Received{From: int(u), Payload: slots[u]})
		}
		if e.Faults != nil {
			in = sh.faultInbox(e, in, v)
		}
		sh.inbox = in
		alg.Inbox(v, in)
	}
}

// compactSenders returns the neighbors in nbr whose sent byte is 1, in
// order, in the shard's reused senders buffer. Every neighbor is stored
// and the write position advances by its sent byte, so no branch depends
// on which neighbors sent: in rounds where some but not all nodes send, a
// branch per neighbor is mispredicted often enough to cost more than the
// slot reads it would save.
func (sh *shard) compactSenders(nbr []int32, sent []uint8) []int32 {
	if cap(sh.senders) < len(nbr) {
		sh.senders = slices.Grow(sh.senders[:0], len(nbr))
	}
	out := sh.senders[:len(nbr)]
	k := 0
	for _, u := range nbr {
		out[k] = u
		k += int(sent[u])
	}
	return out[:k]
}

// faultInbox applies to v's gathered inbox, in place, the verdicts route
// accounted: a dropped wire's message leaves the inbox, and a corrupted
// one is replaced by its payload's encoding, re-encoded in the shard's
// writer, with bit salt mod its length flipped.
func (sh *shard) faultInbox(e *Engine, in []Received, v int) []Received {
	out := in[:0]
	for _, m := range in {
		switch outcome, salt := e.Faults.Wire(e.round, m.From, v); outcome {
		case FaultDrop:
			continue
		case FaultCorrupt:
			sh.w.Reset()
			m.Payload.EncodeBits(sh.w)
			m.Payload = corruptBits(sh.w, salt)
		}
		out = append(out, m)
	}
	return out
}

// corruptBits copies the writer's current encoding and flips the bit
// selected by salt. Zero-length messages stay empty (nothing to flip); the
// receiver still sees a CorruptPayload.
func corruptBits(w *bitio.Writer, salt uint64) CorruptPayload {
	nbit := w.Len()
	bits := append([]byte(nil), w.Bytes()...)
	if nbit > 0 {
		pos := int(salt % uint64(nbit))
		bits[pos/8] ^= 1 << (7 - uint(pos%8))
	}
	return CorruptPayload{Bits: bits, NBit: nbit}
}

// observeRound reports one executed round to the installed tracer and
// metrics registry. It runs on the coordinator after the order-independent
// shard merge (and after the Inbox phase, so detected decode faults are
// included), which is what makes traces byte-identical across worker
// counts. Called only when a tracer or registry is installed.
func (e *Engine) observeRound(round, active int, delivered, roundBits int64, roundMax int, faults RoundFaults) {
	if tr := e.tracer; tr != nil {
		tr.Round(obs.RoundInfo{
			Round:        round,
			Active:       active,
			Messages:     delivered,
			Bits:         roundBits,
			MaxBits:      roundMax,
			Dropped:      faults.Dropped,
			Corrupted:    faults.Corrupted,
			DecodeFaults: faults.DecodeFaults,
		})
	}
	if reg := e.metrics; reg != nil {
		reg.Counter(obs.MetricRounds).Add(1)
		reg.Counter(obs.MetricMessages).Add(delivered)
		reg.Counter(obs.MetricBits).Add(roundBits)
		reg.Gauge(obs.MetricMaxMessageBits).SetMax(int64(roundMax))
		reg.Histogram(obs.MetricRoundMaxBits, obs.RoundMaxBitsBuckets).Observe(float64(roundMax))
		if faults.Dropped != 0 {
			reg.Counter(obs.MetricDropped).Add(faults.Dropped)
		}
		if faults.Corrupted != 0 {
			reg.Counter(obs.MetricCorrupted).Add(faults.Corrupted)
		}
		if faults.DecodeFaults != 0 {
			reg.Counter(obs.MetricDecodeFaults).Add(faults.DecodeFaults)
		}
	}
}

// Run executes alg until Done or maxRounds, returning execution statistics.
//
// Each round has three phases, each run by every shard for its own nodes:
// Outbox collection, routing, and Inbox delivery. If alg implements
// Quiescent, a round that delivers no messages may terminate the run
// early; see Quiescent.
func (e *Engine) Run(alg Algorithm, maxRounds int) (Stats, error) {
	return e.RunFrom(alg, 0, maxRounds, Stats{})
}

// RunFrom executes alg exactly like Run but with the round clock starting
// at startRound and prior merged as the statistics of the already-executed
// rounds. It is the resume half of the checkpoint contract (see
// docs/RECOVERY.md): restoring a Snapshotter from a round-Checkpoint and
// calling RunFrom(alg, ck.Round, maxRounds, ck.Stats) continues the run
// with fault schedules, traces, and Stats aligned to the absolute round
// clock, so the completed run is bit-identical to one that never stopped.
// Round boundaries carry no routing state, so a checkpoint written at one
// worker count resumes at any other.
//
// Shard accounting merges with sums and maxes only; a bandwidth error
// names the first violating sender in id order, because shards cover
// increasing sender ranges, with its first wire that was not dropped. A
// callback panic on any shard, or a node's second Broadcast in a round,
// is re-raised on the caller's goroutine (see Engine.phase).
func (e *Engine) RunFrom(alg Algorithm, startRound, maxRounds int, prior Stats) (Stats, error) {
	e.prepare()
	stats := prior
	e.alg = alg
	observing := e.tracer != nil || e.metrics != nil
	ledger := e.Faults != nil
	if ledger || observing {
		e.decodeFaults.Store(0)
	}
	for _, sh := range e.shards {
		sh.w = writerPool.Get().(*bitio.Writer)
	}
	for _, sh := range e.shards[1:] {
		go sh.loop(e)
	}
	defer func() {
		// cmd is unbuffered, so every goroutine has finished its phase
		// (and posted to done) once its exit is received; draining done
		// then leaves the barrier clean even if shard 0 left a phase
		// early (runtime.Goexit; panics are recovered at the barrier).
		for _, sh := range e.shards[1:] {
			sh.cmd <- phaseExit
		}
		for len(e.done) > 0 {
			<-e.done
		}
		for _, sh := range e.shards {
			writerPool.Put(sh.w)
			sh.w = nil
		}
		// The slots must not keep the run's payloads alive.
		clear(e.slots)
		e.alg = nil
	}()
	if e.metrics != nil {
		ghosts, _ := e.Census()
		e.metrics.Gauge(obs.MetricShardGhostNodes).Set(ghosts)
	}
	quiescent, canQuiesce := alg.(Quiescent)
	var runBoundary int64
	for round := startRound; round < maxRounds; round++ {
		if alg.Done() {
			return stats, nil
		}
		e.round = round
		e.phase(phaseCollect)
		active := 0
		for _, sh := range e.shards {
			active += sh.active
		}
		e.allSent = active == e.g.N()
		bitsBefore := stats.TotalBits
		e.phase(phaseRoute)
		var delivered int64
		var roundMax int
		var faults RoundFaults
		var bwErr *ErrBandwidth
		for _, sh := range e.shards {
			delivered += sh.messages
			stats.Messages += sh.messages
			stats.TotalBits += sh.totalBits
			faults.Dropped += sh.dropped
			faults.Corrupted += sh.corrupted
			runBoundary += sh.boundary
			if sh.roundMax > roundMax {
				roundMax = sh.roundMax
			}
			if sh.bwErr != nil && bwErr == nil {
				bwErr = sh.bwErr
			}
		}
		if roundMax > stats.MaxMessageBits {
			stats.MaxMessageBits = roundMax
		}
		if e.metrics != nil {
			e.metrics.Gauge(obs.MetricShardBoundaryMsgs).Set(runBoundary)
		}
		if bwErr != nil {
			return stats, bwErr
		}
		stats.RoundMaxBits = append(stats.RoundMaxBits, roundMax)
		e.phase(phaseDeliver)
		if ledger || observing {
			// Decode faults reported by the Inbox callbacks complete this
			// round's accounting; the swap must happen exactly once.
			faults.DecodeFaults = e.decodeFaults.Swap(0)
			if ledger {
				// len(Faults) tracks Rounds.
				stats.Faults = append(stats.Faults, faults)
			}
			if observing {
				e.observeRound(round, active, delivered, stats.TotalBits-bitsBefore, roundMax, faults)
			}
		}
		stats.Rounds++
		if h := e.afterRound; h != nil {
			// The hook observes the round fully merged into stats; its error
			// (checkpoint write failure, injected kill) aborts the run with
			// the accounting so far.
			if err := h(round, &stats); err != nil {
				return stats, err
			}
		}
		if delivered == 0 && canQuiesce && quiescent.Quiesced() {
			return stats, nil
		}
	}
	if !alg.Done() {
		return stats, fmt.Errorf("sim: algorithm did not terminate within %d rounds", maxRounds)
	}
	return stats, nil
}
