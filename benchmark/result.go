package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"unsafe"

	"repro/internal/coloring"
	"repro/internal/obs"
	"repro/internal/sim"
)

// opResult is one timed op: a solve, or one Durable.Apply batch.
type opResult struct {
	seconds    float64 // wall time
	cpuSeconds float64 // process CPU time (all threads, GC included)
	allocBytes uint64
	items      int                 // nodes colored, or mutations applied
	phi        coloring.Assignment // solve ops only
	stats      sim.Stats           // rounds and bits (and max message on solves)
	err        error
	rejected   bool        // the output failed the independent check
	span       int         // traced ops: index of the op's span
	batch      batchReport // serve ops only
}

// batchReport is what a serve op adds; the timing split is traced only.
type batchReport struct {
	recolored, repairs, dirty int
	recolorMs                 float64
	fsyncs, walBytes          int64
	snapshotBytes             int64 // nonzero when the batch compacted
}

// result gathers a run's ops and checks that repeated ops agree.
type result struct {
	workload    string
	c           *config
	setups      []setupTimes
	heapMB      []float64
	ops         []opResult // untraced
	traced      []opResult
	rec         *recorder
	episodes    int   // serve: traced episodes
	episodeBits int64 // serve: wire bits of the untraced episodes

	digest string    // of the final coloring
	colors int       // in the final coloring
	first  sim.Stats // counts of the first op or episode
	// counters and gauges of the traced ops, from the recorder's registry
	counters, gauges map[string]int64
	problems         []string // outputs that disagree or fail their check
}

func newResult(workload string, c *config) *result {
	return &result{workload: workload, c: c, counters: map[string]int64{}, gauges: map[string]int64{}}
}

// digestOf hashes a coloring, so that two runs on one seed compare exactly.
func digestOf(phi coloring.Assignment) string {
	h := sha256.New()
	var b [4]byte
	for _, x := range phi {
		binary.LittleEndian.PutUint32(b[:], uint32(int32(x)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// agree records a final coloring with the counts that produced it and
// flags any op or episode that disagrees with the first.
func (r *result) agree(phi coloring.Assignment, st sim.Stats) {
	d := digestOf(phi)
	if r.digest == "" {
		r.digest, r.colors, r.first = d, coloring.CountColors(phi), st
		return
	}
	if d != r.digest || st.Rounds != r.first.Rounds || st.TotalBits != r.first.TotalBits || st.MaxMessageBits != r.first.MaxMessageBits {
		r.problem("coloring %s after %d rounds / %d bits / max %d bits differs from the first: %s after %d / %d / %d",
			d, st.Rounds, st.TotalBits, st.MaxMessageBits, r.digest, r.first.Rounds, r.first.TotalBits, r.first.MaxMessageBits)
	}
}

// record adds one solve op; recordTraced adds a traced one. Every solve of
// an instance must produce the same coloring, rounds and bits.
func (r *result) record(op opResult) { r.ops = append(r.ops, r.checkSolve(op)) }

func (r *result) recordTraced(op opResult) { r.traced = append(r.traced, r.checkSolve(op)) }

func (r *result) checkSolve(op opResult) opResult {
	if op.rejected {
		r.problem("rejected output: %v", op.err)
	}
	if op.err == nil {
		r.agree(op.phi, op.stats)
	}
	op.phi = nil
	return op
}

// addEpisode adds one serve episode. Every episode replays the same batch
// sequence, so the episodes' colorings and totals must agree.
func (r *result) addEpisode(ep episode, ops []opResult, traced bool, start, end obs.Snapshot) {
	r.setups = append(r.setups, ep.setup)
	r.heapMB = append(r.heapMB, ep.heapMB)
	for _, op := range ops {
		if op.rejected {
			r.problem("rejected output: %v", op.err)
		}
	}
	total := sim.Stats{TotalBits: ep.bits, MaxMessageBits: ep.maxBits}
	for _, op := range ops {
		total.Rounds += op.stats.Rounds
	}
	r.agree(ep.phi, total)
	if !traced {
		r.ops = append(r.ops, ops...)
		r.episodeBits += ep.bits
		return
	}
	r.traced = append(r.traced, ops...)
	r.episodes++
	for k, v := range end.Counters {
		r.counters[k] += v - start.Counters[k]
	}
	for k, v := range end.Gauges {
		r.gauges[k] = v
	}
}

func (r *result) allOps() []opResult {
	return append(append([]opResult(nil), r.ops...), r.traced...)
}

// attempts counts every op of the run and the ones that failed.
func (r *result) attempts() (attempted, failed int) {
	for _, op := range r.allOps() {
		attempted++
		if op.err != nil {
			failed++
		}
	}
	return attempted, failed
}

// metric is one printed figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples string // how the value was aggregated, for the log lines
}

// endToEnd computes the untraced metrics declared in BENCHMARK.json.
func (r *result) endToEnd() []metric {
	var ok, rounds int
	var cpu, alloc float64
	bits := float64(r.episodeBits)
	for _, op := range r.ops {
		if op.err != nil {
			continue
		}
		ok++
		cpu += op.cpuSeconds
		rounds += op.stats.Rounds
		bits += float64(op.stats.TotalBits)
		alloc += float64(op.allocBytes)
	}
	n := float64(ok)
	attempted, failed := r.attempts()
	nOps := fmt.Sprintf("mean of %d %s", ok, r.opName())
	return []metric{
		{"setup_s", median(setupField(r.setups, func(t setupTimes) float64 { return t.total })), "s", fmt.Sprintf("median of %d set-ups", len(r.setups))},
		{"op_cpu_ms", cpu / n * 1000, "ms", nOps},
		{"rounds", float64(rounds) / n, "rounds/op", nOps},
		{"mbits", bits / n / 1e6, "Mbit/op", nOps},
		{"max_msg_bits", float64(r.first.MaxMessageBits), "bits", "largest message, same in every " + r.unitName()},
		{"colors", float64(r.colors), "count", "final coloring"},
		{"alloc_mb", alloc / n / 1e6, "MB/op", nOps},
		{"heap_mb", median(r.heapMB), "MB", fmt.Sprintf("median of %d set-ups", len(r.heapMB))},
		{"success_rate", 1 - float64(failed)/float64(attempted), "fraction", fmt.Sprintf("%d attempted", attempted)},
	}
}

// opName and unitName name the workload's ops, and the unit that repeats
// exactly, for the log lines.
func (r *result) opName() string {
	if r.workload == "serve-churn" {
		return "batches"
	}
	return "solves"
}

func (r *result) unitName() string {
	if r.workload == "serve-churn" {
		return "episode"
	}
	return "solve"
}

// perLayer computes the traced metrics declared in BENCHMARK.json. A layer
// the workload does not run reports 0.
func (r *result) perLayer() []metric {
	rec := r.rec
	rec.finish()
	tot := rec.totals()
	ops := float64(len(r.traced))
	per := func(ns int64) float64 { return float64(ns) / 1e9 / ops }
	perOp := func(x int64) float64 { return float64(x) / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	workers := float64(r.c.workers)
	var outNs, inNs int64
	for _, t := range rec.cpuNs {
		outNs += t[0]
		inNs += t[1]
	}
	routeS := float64(tot["route"].dur) / 1e9
	twoPhase := tot["oldc.run"].dur
	if twoPhase == 0 {
		twoPhase = tot["oldc/two-phase"].dur
	}
	hits, misses := r.counters[obs.MetricFamilyCacheHits], r.counters[obs.MetricFamilyCacheMisses]
	s := r.serveLayers()
	untraced, traced := r.opSeconds(r.ops), r.opSeconds(r.traced)
	overhead := ratio(median(traced), median(untraced)) - 1
	if r.workload == "serve-churn" {
		overhead = ratio(mean(traced), mean(untraced)) - 1
	}
	nTraced := fmt.Sprintf("mean of %d traced ops", len(r.traced))
	setups := fmt.Sprintf("median of %d set-ups", len(r.setups))
	tm := func(name string, v float64, unit string) metric { return metric{name, v, unit, nTraced} }
	wallMs, itemsPerS := r.untracedWall()
	nUntraced := fmt.Sprintf("%d untraced ops", len(wallMs))
	return []metric{
		{"wall.op_p50_ms", median(wallMs), "ms", "median of " + nUntraced},
		{"wall.items_per_s", itemsPerS, "1/s", "total over " + nUntraced},
		{"setup.graph_s", median(setupField(r.setups, func(t setupTimes) float64 { return t.graph })), "s", setups},
		{"setup.lists_s", median(setupField(r.setups, func(t setupTimes) float64 { return t.lists })), "s", setups},
		{"setup.store_s", median(setupField(r.setups, func(t setupTimes) float64 { return t.store })), "s", setups},
		tm("sim.collect_s", per(tot["collect"].dur), "s"),
		tm("sim.route_s", per(tot["route"].dur), "s"),
		tm("sim.deliver_s", per(tot["deliver"].dur), "s"),
		tm("sim.collect_util", ratio(float64(outNs), workers*float64(tot["collect"].dur)), "frac"),
		tm("sim.deliver_util", ratio(float64(inNs), workers*float64(tot["deliver"].dur)), "frac"),
		tm("sim.wires_per_s", ratio(float64(rec.splitMessages), routeS), "1/s"),
		tm("sim.route_mbit_per_s", ratio(float64(rec.splitBits)/1e6, routeS), "Mbit/s"),
		tm("sim.runs", perOp(rec.runs), "count"),
		tm("sim.messages", perOp(rec.messages), "count"),
		{"sim.round_ms_max", float64(rec.maxRoundNs()) / 1e6, "ms", fmt.Sprintf("max over %d traced ops", len(r.traced))},
		tm("oldc.prep_s", per(tot["oldc.prepare"].dur), "s"),
		tm("oldc.class_select_s", per(tot["oldc/class-selection"].dur), "s"),
		tm("oldc.two_phase_s", per(twoPhase), "s"),
		tm("oldc.outbox_cpu_s", per(rec.cpuNs["oldc"][0]), "s"),
		tm("oldc.inbox_cpu_s", per(rec.cpuNs["oldc"][1]), "s"),
		tm("oldc.finish_s", per(tot["oldc.finish"].dur), "s"),
		tm("oldc.solves", perOp(int64(tot["oldc/two-phase"].count+tot["serve/repair"].count)), "count"),
		tm("cover.hits", perOp(hits), "count"),
		tm("cover.misses", perOp(misses), "count"),
		tm("cover.hit_ratio", ratio(float64(hits), float64(hits+misses)), "frac"),
		{"cover.families", float64(r.gauges[obs.MetricFamilyCacheEntries]), "count", "last solve"},
		{"cover.arena_mb", float64(r.gauges[obs.MetricFamilyArenaBytes]) / 1e6, "MB", "last solve"},
		tm("congest.bootstrap_s", per(tot["congest/linial-bootstrap"].dur), "s"),
		tm("arb.stage_s", per(tot["arb/stage"].self), "s"),
		tm("arb.batch_s", per(tot["arb/batch"].dur), "s"),
		tm("arb.fallback_s", per(tot["arb/fallback"].dur), "s"),
		tm("arb.stages", perOp(int64(tot["arb/stage"].count)), "count"),
		tm("arb.batches", perOp(int64(tot["arb/batch"].count)), "count"),
		tm("luby.outbox_cpu_s", per(rec.cpuNs["luby"][0]), "s"),
		tm("luby.inbox_cpu_s", per(rec.cpuNs["luby"][1]), "s"),
		tm("serve.recolor_ms", s.recolorMs, "ms"),
		{"serve.detect_ms", s.detectMs, "ms", s.plain},
		{"serve.repair_ms", s.repairMs, "ms", s.plain},
		{"serve.sweep_ms", s.sweepMs, "ms", s.plain},
		tm("serve.repairs_per_batch", s.repairs, "count"),
		tm("serve.dirty_per_batch", s.dirty, "count"),
		tm("serve.persist_ms", s.persistMs, "ms"),
		tm("wal.fsyncs_per_batch", s.fsyncs, "count"),
		tm("wal.bytes_per_batch", s.walBytes, "B"),
		{"serve.snapshot_ms", s.snapshotMs, "ms", s.snaps},
		{"serve.snapshots", s.snapshots, "count", fmt.Sprintf("per episode, %d traced episodes", r.episodes)},
		{"serve.snapshot_kb", s.snapshotKB, "KB", s.snaps},
		{"serve.batch_p99_ms", s.p99Ms, "ms", s.p99},
		{"serve.recolored_per_mutation", s.recoloredPerMutation, "nodes", "all batches"},
		{"trace.overhead_frac", overhead, "frac", fmt.Sprintf("%d traced vs %d untraced ops", len(traced), len(untraced))},
	}
}

// serveFigures are the serve-churn per-layer figures.
type serveFigures struct {
	recolorMs, persistMs, detectMs, repairMs, sweepMs float64
	repairs, dirty, fsyncs, walBytes                  float64
	snapshotMs, snapshots, snapshotKB                 float64
	p99Ms, recoloredPerMutation                       float64
	plain, snaps, p99                                 string // sample notes
}

// serveLayers splits traced batches into recolor and persistence time, and
// the recolor time of batches without compaction into detect, repair and
// sweep: in those batches the server's Apply ends when Durable.Apply
// returns, so the serve/* phase spans close at the op's end. Detect is the
// recolor time before and around them (mutations, list top-ups, violator
// scans).
func (r *result) serveLayers() serveFigures {
	var f serveFigures
	if r.workload != "serve-churn" {
		return f
	}
	phaseNs := map[int][2]int64{} // op span → serve/repair, serve/greedy-sweep time
	for _, s := range r.rec.spans {
		t := phaseNs[s.Op]
		switch s.Name {
		case "serve/repair":
			t[0] += s.dur()
		case "serve/greedy-sweep":
			t[1] += s.dur()
		default:
			continue
		}
		phaseNs[s.Op] = t
	}
	var snapMs, snapKB []float64
	plain := 0
	for _, op := range r.traced {
		b := op.batch
		persist := op.seconds*1000 - b.recolorMs
		f.recolorMs += b.recolorMs
		f.persistMs += persist
		f.repairs += float64(b.repairs)
		f.dirty += float64(b.dirty)
		f.fsyncs += float64(b.fsyncs)
		f.walBytes += float64(b.walBytes)
		if b.snapshotBytes > 0 {
			snapMs = append(snapMs, persist)
			snapKB = append(snapKB, float64(b.snapshotBytes)/1e3)
			continue
		}
		t := phaseNs[op.span]
		repair, sweep := float64(t[0])/1e6, float64(t[1])/1e6
		f.repairMs += repair
		f.sweepMs += sweep
		f.detectMs += b.recolorMs - repair - sweep
		plain++
	}
	n := float64(len(r.traced))
	for _, x := range []*float64{&f.recolorMs, &f.persistMs, &f.repairs, &f.dirty, &f.fsyncs, &f.walBytes} {
		*x /= n
	}
	for _, x := range []*float64{&f.detectMs, &f.repairMs, &f.sweepMs} {
		*x /= float64(plain)
	}
	f.plain = fmt.Sprintf("mean of %d traced batches without compaction", plain)
	f.snapshotMs, f.snapshotKB = median(snapMs), median(snapKB)
	f.snapshots = float64(len(snapMs)) / float64(r.episodes)
	f.snaps = fmt.Sprintf("median of %d compacting batches", len(snapMs))

	lat, _ := r.untracedWall()
	p99, beyond := percentile(lat, 0.99)
	f.p99Ms = p99
	f.p99 = fmt.Sprintf("p99 of %d untraced batches, %d beyond it", len(lat), beyond)
	f.recoloredPerMutation = r.recoloredPerMutation()
	return f
}

// untracedWall returns the wall times of the successful untraced ops in
// milliseconds and the items (nodes colored or mutations applied) they
// processed per second.
func (r *result) untracedWall() ([]float64, float64) {
	var ms []float64
	var items int
	var secs float64
	for _, op := range r.ops {
		if op.err == nil {
			ms = append(ms, op.seconds*1000)
			items += op.items
			secs += op.seconds
		}
	}
	return ms, float64(items) / secs
}

// recoloredPerMutation is serve-churn's nodes recolored per mutation over
// every batch of the run; each episode replays the same batches, so it
// repeats exactly for a seed.
func (r *result) recoloredPerMutation() float64 {
	var recolored, mutations int
	for _, op := range r.allOps() {
		recolored += op.batch.recolored
		mutations += op.items
	}
	return float64(recolored) / float64(mutations)
}

// wallSummary gives the untraced wall-clock figures, which are not gated
// (see NOTES.md), under the names the benchmark was specified with: solve_s
// on the solve workloads; batch_p50_ms, batch_p99_ms, mutations_per_s and
// recolored_per_mutation on serve-churn.
func (r *result) wallSummary() string {
	ms, perS := r.untracedWall()
	if r.workload != "serve-churn" {
		return fmt.Sprintf("solve_s=%.4g s per op (median of %d ops)", median(ms)/1000, len(ms))
	}
	p99, beyond := percentile(ms, 0.99)
	return fmt.Sprintf("batch_p50_ms=%.4g ms, batch_p99_ms=%.4g ms (%d batches, %d beyond p99), mutations_per_s=%.4g 1/s, recolored_per_mutation=%.4g nodes",
		median(ms), p99, len(ms), beyond, perS, r.recoloredPerMutation())
}

// opSeconds lists the durations of the successful ops.
func (r *result) opSeconds(ops []opResult) []float64 {
	var s []float64
	for _, op := range ops {
		if op.err == nil {
			s = append(s, op.seconds)
		}
	}
	return s
}

func setupField(ts []setupTimes, f func(setupTimes) float64) []float64 {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = f(t)
	}
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank q-quantile and how many samples lie
// strictly above its rank.
func percentile(v []float64, q float64) (float64, int) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - 1 - rank
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the process's cumulative heap allocation, read without
// stopping the world.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuSeconds is the process's CPU time over all threads, to the
// nanosecond (CLOCK_PROCESS_CPUTIME_ID; the benchmark runs on Linux). The
// kernel accounts it from run time, so time the hypervisor steals from a
// vCPU is not in it.
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // cannot fail for this clock
	}
	return float64(ts.Nano()) / 1e9
}
