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
	// ReportDecodeFault records one detected decode failure in the current
	// round's fault ledger; safe from concurrent Inbox callbacks.
	ReportDecodeFault()
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
	phaseCollect phase = iota // run Outbox callbacks, validate
	phaseRoute                // encode, account, apply faults, enqueue blocks
	phaseDeliver              // counting-sort inbound blocks, run Inbox callbacks
	phaseExit                 // end the shard goroutine
)

// block is one routing-queue entry: one sender's payload for a run of
// receivers on the destination shard, with fault decisions already applied
// (drops are never enqueued; a corrupted wire gets a block of its own).
// Because neighbor lists are sorted and shards are contiguous, a
// broadcast's receivers on one shard are a contiguous subrange of the
// sender's neighbor list, so a fault-free broadcast costs one block per
// destination shard however many wires it fans out over.
type block struct {
	from int32 // sender
	send int32 // payload: index into the source shard's sends, or ^i into its corrupt list
	off  int32 // first receiver: offset into the sender's neighbor list, or into the source shard's tgt when n < 0
	n    int32 // receiver count, negated when the receivers live in tgt
}

// shard is one worker: a contiguous node range and all the routing state
// its goroutine owns. Exactly one goroutine touches a shard's mutable state
// in a phase; other shards read its queues, sends, tgt and corrupt lists
// only in the deliver phase, after the route barrier.
type shard struct {
	id     int
	lo, hi int // owned node range [lo, hi)

	ob      Outbox  // collection handle, re-pointed at each local node
	sends   []send  // this round's send entries of all local nodes, in node order
	sendOff []int32 // node lo+i's entries are sends[sendOff[i]:sendOff[i+1]]
	w       *bitio.Writer

	out     [][]block // out[d]: this round's blocks bound for shard d
	need    []int     // per-destination block bound, for sizing out
	tgt     []int32   // explicit receiver lists (targeted sends, faulted runs)
	corrupt []Payload // damaged copies of corrupted wires
	one     [1]int32  // receiver list of a targeted send under faults

	next  []int32 // per-local-receiver count, then write cursor
	start []int32 // inbox offsets into arena, len hi-lo+1
	arena []Received

	// Per-round accounting, merged by the coordinator with sums and maxes
	// only, so merged Stats are bit-identical for every shard count.
	messages  int64
	totalBits int64
	roundMax  int
	dropped   int64
	corrupted int64
	boundary  int64 // wires routed to other shards
	active    int   // local nodes that sent something this round
	bwErr     *ErrBandwidth
	valErr    error

	cmd chan phase
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

// prepare builds the per-shard state on the first run and keeps it for
// later runs, re-partitioning only when the node count or the worker count
// has changed since it was built. Buffers sized by traffic (sends, queues,
// arenas) grow on demand and are reused from then on.
func (e *Engine) prepare() {
	n := e.g.N()
	if e.shards != nil && e.builtN == n && e.builtFor == e.workers {
		return
	}
	chunk, count := partition(n, e.workers)
	e.chunk, e.builtN, e.builtFor = chunk, n, e.workers
	e.shards = make([]*shard, count)
	for i := range e.shards {
		lo := min(i*chunk, n)
		hi := min(lo+chunk, n)
		e.shards[i] = &shard{
			id:      i,
			lo:      lo,
			hi:      hi,
			sendOff: make([]int32, hi-lo+1),
			out:     make([][]block, count),
			need:    make([]int, count),
			next:    make([]int32, hi-lo),
			start:   make([]int32, hi-lo+1),
			cmd:     make(chan phase),
		}
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

func (sh *shard) run(e *Engine, p phase) {
	switch p {
	case phaseCollect:
		sh.collect(e)
	case phaseRoute:
		sh.route(e)
	case phaseDeliver:
		sh.deliver(e)
	}
}

// phase runs one phase on every shard and returns once all have finished.
func (e *Engine) phase(p phase) {
	for _, sh := range e.shards[1:] {
		sh.cmd <- p
	}
	e.shards[0].run(e, p)
	for range e.shards[1:] {
		<-e.done
	}
}

// collect runs the Outbox callback for every local node, appending all
// their sends to the shard's one sends buffer, then (when Validate is on)
// records the shard's first invalid send in node order.
func (sh *shard) collect(e *Engine) {
	alg := e.alg
	sh.valErr = nil
	sh.active = 0
	sh.sends = sh.sends[:0]
	ob := &sh.ob
	for v := sh.lo; v < sh.hi; v++ {
		before := len(sh.sends)
		if room, done := cap(sh.sends)-before, v-sh.lo; room < 8 && done > 0 && room < before/done {
			// About to run out: grow once to the projected round total
			// rather than letting the callbacks' appends double the buffer.
			sh.sends = slices.Grow(sh.sends, before/done*(sh.hi-v)+1)
		}
		ob.node, ob.neighbors, ob.sends = v, e.g.Neighbors(v), sh.sends
		alg.Outbox(v, ob)
		sh.sends = ob.sends
		sh.sendOff[v-sh.lo+1] = int32(len(sh.sends))
		if len(sh.sends) > before {
			sh.active++
		}
	}
	ob.neighbors, ob.sends = nil, nil
	if e.Validate {
		n := e.g.N()
		for v := sh.lo; v < sh.hi; v++ {
			if err := checkSends(e.round, n, v, e.g.Neighbors(v), sh.nodeSends(v)); err != nil {
				sh.valErr = err
				return
			}
		}
	}
}

// nodeSends returns local node v's send entries of the current round.
func (sh *shard) nodeSends(v int) []send {
	return sh.sends[sh.sendOff[v-sh.lo]:sh.sendOff[v-sh.lo+1]]
}

// checkSends validates node v's targeted sends against its sorted neighbor
// list, returning a descriptive error for an out-of-range or non-adjacent
// target. n is the vertex count; round only labels the error.
func checkSends(round, n, v int, nbr []int32, sends []send) error {
	for _, sd := range sends {
		if sd.to == broadcastTo {
			continue
		}
		if sd.to < 0 || int(sd.to) >= n {
			return fmt.Errorf("sim: round %d: node %d sent to out-of-range node %d", round, v, sd.to)
		}
		if _, ok := slices.BinarySearch(nbr, sd.to); !ok {
			return fmt.Errorf("sim: round %d: node %d sent to non-neighbor %d", round, v, sd.to)
		}
	}
	return nil
}

// route encodes, accounts, and enqueues the shard's outgoing messages.
// Each send entry is encoded exactly once (a broadcast costs one
// EncodeBits regardless of degree) while accounting charges every wire.
// Fault-free sends enqueue per-destination blocks; with fault hooks
// installed every wire needs its own verdict, consulted exactly once, so
// faultWires walks the receivers one by one.
func (sh *shard) route(e *Engine) {
	round := e.round
	for d := range sh.out {
		sh.out[d] = sh.out[d][:0]
	}
	sh.tgt = sh.tgt[:0]
	sh.corrupt = sh.corrupt[:0]
	sh.messages, sh.totalBits, sh.roundMax = 0, 0, 0
	sh.dropped, sh.corrupted, sh.boundary = 0, 0, 0
	sh.bwErr = nil
	// Corruption flips bits of the real encoding, so a structured fault
	// model forces encoding even when bit accounting is off.
	needEncode := e.CountBits || e.Faults != nil
	useFault := e.Fault != nil || e.Faults != nil
	if !useFault {
		sh.reserve(e)
	}
	w := sh.w
	for v := sh.lo; v < sh.hi; v++ {
		nbr := e.g.Neighbors(v)
		for i := sh.sendOff[v-sh.lo]; i < sh.sendOff[v-sh.lo+1]; i++ {
			sd := sh.sends[i]
			bits := 0
			if needEncode {
				w.Reset()
				sd.payload.EncodeBits(w)
				bits = w.Len()
			}
			switch {
			case useFault && sd.to == broadcastTo:
				sh.faultWires(e, round, v, i, nbr, bits)
			case useFault:
				sh.one[0] = sd.to
				sh.faultWires(e, round, v, i, sh.one[:], bits)
			case sd.to == broadcastTo:
				sh.broadcast(e, round, v, i, nbr, bits)
			default:
				sh.targeted(e, round, v, i, int(sd.to), bits)
			}
		}
	}
}

// reserve sizes the fault-free queues for this round from the collected
// sends, so an engine built per run allocates each queue once instead of
// growing it: a broadcast adds at most one block to every shard its
// neighbor range spans, a targeted send one block and one tgt entry.
func (sh *shard) reserve(e *Engine) {
	clear(sh.need)
	targeted := 0
	for v := sh.lo; v < sh.hi; v++ {
		nbr := e.g.Neighbors(v)
		for _, sd := range sh.nodeSends(v) {
			if sd.to != broadcastTo {
				sh.need[int(sd.to)/e.chunk]++
				targeted++
				continue
			}
			if len(nbr) == 0 {
				continue
			}
			for d := int(nbr[0]) / e.chunk; d <= int(nbr[len(nbr)-1])/e.chunk; d++ {
				sh.need[d]++
			}
		}
	}
	for d, k := range sh.need {
		if cap(sh.out[d]) < k {
			sh.out[d] = make([]block, 0, k)
		}
	}
	if cap(sh.tgt) < targeted {
		sh.tgt = make([]int32, 0, targeted)
	}
}

// accountWire charges one wire against the shard's round accounting:
// message count, bit totals, and the bandwidth assertion.
func (sh *shard) accountWire(e *Engine, round, v, u, bits int) {
	sh.messages++
	if e.CountBits {
		sh.totalBits += int64(bits)
		if bits > sh.roundMax {
			sh.roundMax = bits
		}
		if e.Bandwidth > 0 && bits > e.Bandwidth && sh.bwErr == nil {
			sh.bwErr = &ErrBandwidth{Round: round, From: v, To: u, Bits: bits, Limit: e.Bandwidth}
		}
	}
}

// broadcast routes one fault-free broadcast: the sorted neighbor list
// splits into one run per destination shard, and each run becomes a block
// that addresses the neighbor list in place. Accounting is batched per
// run; the bandwidth check still reports the first wire of the first run,
// which is the first violating wire of this send.
func (sh *shard) broadcast(e *Engine, round, v int, send int32, nbr []int32, bits int) {
	last := len(e.shards) - 1
	for j := 0; j < len(nbr); {
		d := int(nbr[j]) / e.chunk
		k := len(nbr)
		if d < last {
			pos, _ := slices.BinarySearch(nbr[j:], int32((d+1)*e.chunk))
			k = j + pos
		}
		cnt := k - j
		sh.messages += int64(cnt)
		if e.CountBits {
			sh.totalBits += int64(bits) * int64(cnt)
			if bits > sh.roundMax {
				sh.roundMax = bits
			}
			if e.Bandwidth > 0 && bits > e.Bandwidth && sh.bwErr == nil {
				sh.bwErr = &ErrBandwidth{Round: round, From: v, To: int(nbr[j]), Bits: bits, Limit: e.Bandwidth}
			}
		}
		if d != sh.id {
			sh.boundary += int64(cnt)
		}
		sh.out[d] = append(sh.out[d], block{from: int32(v), send: send, off: int32(j), n: int32(cnt)})
		j = k
	}
}

// targeted routes one fault-free SendTo wire as a one-receiver tgt block.
func (sh *shard) targeted(e *Engine, round, v int, send int32, u, bits int) {
	sh.accountWire(e, round, v, u, bits)
	d := u / e.chunk
	if d != sh.id {
		sh.boundary++
	}
	sh.tgt = append(sh.tgt, int32(u))
	sh.out[d] = append(sh.out[d], block{from: int32(v), send: send, off: int32(len(sh.tgt) - 1), n: -1})
}

// faultWires settles one send entry wire by wire when fault hooks are
// installed. The legacy Fault hook wins first and its drops stay outside
// the ledger; otherwise the structured model picks an outcome. Drops never
// enqueue, surviving receivers accumulate into per-destination runs in
// tgt, and a corruption interrupts the current run with its own block
// carrying the damaged copy of the encoding the shard's writer still
// holds. targets must be ascending (the neighbor-list invariant), which
// keeps each run on one destination shard; blocks follow wire order, so
// per-receiver delivery order is unchanged.
func (sh *shard) faultWires(e *Engine, round, v int, send int32, targets []int32, bits int) {
	runDest, runStart := -1, len(sh.tgt)
	for _, ut := range targets {
		u := int(ut)
		if e.Fault != nil && e.Fault(round, v, u) {
			continue
		}
		pl := send
		if e.Faults != nil {
			switch outcome, salt := e.Faults.Wire(round, v, u); outcome {
			case FaultDrop:
				sh.dropped++
				continue
			case FaultCorrupt:
				sh.corrupted++
				sh.corrupt = append(sh.corrupt, corruptBits(sh.w, salt))
				pl = ^int32(len(sh.corrupt) - 1)
			}
		}
		sh.accountWire(e, round, v, u, bits)
		d := u / e.chunk
		if d != sh.id {
			sh.boundary++
		}
		if pl != send || d != runDest {
			sh.flushRun(v, send, runDest, runStart)
			runDest, runStart = d, len(sh.tgt)
		}
		sh.tgt = append(sh.tgt, ut)
		if pl != send {
			sh.out[d] = append(sh.out[d], block{from: int32(v), send: pl, off: int32(runStart), n: -1})
			runStart = len(sh.tgt)
		}
	}
	sh.flushRun(v, send, runDest, runStart)
}

// flushRun enqueues the receivers tgt[start:] as one block for shard d.
func (sh *shard) flushRun(v int, send int32, d, start int) {
	if cnt := len(sh.tgt) - start; cnt > 0 {
		sh.out[d] = append(sh.out[d], block{from: int32(v), send: send, off: int32(start), n: -int32(cnt)})
	}
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

// receivers resolves a block of source shard src to its receiver list.
func (e *Engine) receivers(src *shard, b block) []int32 {
	if b.n < 0 {
		return src.tgt[b.off : b.off-b.n]
	}
	return e.g.Neighbors(int(b.from))[b.off : b.off+b.n]
}

// payload resolves a block of source shard src to its payload.
func (src *shard) payload(b block) Payload {
	if b.send < 0 {
		return src.corrupt[^b.send]
	}
	return src.sends[b.send].payload
}

// deliver counting-sorts the blocks bound for this shard into its inbox
// arena and runs the Inbox callback for every local node. Source shards
// are drained in shard order and cover increasing sender ranges, each
// queue is in (sender, send-call) order, and a block's receivers are
// distinct, so every inbox comes out sorted by sender id with same-sender
// messages in send-call order. Both passes write only this shard's
// arrays.
func (sh *shard) deliver(e *Engine) {
	clear(sh.next)
	for _, src := range e.shards {
		for _, b := range src.out[sh.id] {
			for _, t := range e.receivers(src, b) {
				sh.next[int(t)-sh.lo]++
			}
		}
	}
	pos := int32(0)
	for i, c := range sh.next {
		sh.start[i] = pos
		sh.next[i] = pos
		pos += c
	}
	sh.start[len(sh.next)] = pos
	if cap(sh.arena) < int(pos) {
		sh.arena = make([]Received, pos)
	} else {
		sh.arena = sh.arena[:pos]
	}
	for _, src := range e.shards {
		for _, b := range src.out[sh.id] {
			m := Received{From: int(b.from), Payload: src.payload(b)}
			for _, t := range e.receivers(src, b) {
				i := int(t) - sh.lo
				sh.arena[sh.next[i]] = m
				sh.next[i]++
			}
		}
	}
	alg := e.alg
	for v := sh.lo; v < sh.hi; v++ {
		alg.Inbox(v, sh.arena[sh.start[v-sh.lo]:sh.start[v-sh.lo+1]])
	}
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
// Shard accounting merges with sums and maxes only; bandwidth and
// validation errors surface the first violating wire in (sender,
// send-call) order, because shards cover increasing sender ranges.
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
		// then leaves the barrier clean even after a panic unwound a phase.
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
		if e.Validate {
			for _, sh := range e.shards {
				if sh.valErr != nil {
					return stats, sh.valErr
				}
			}
		}
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
				active := 0
				for _, sh := range e.shards {
					active += sh.active
				}
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
