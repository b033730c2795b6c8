package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// span is one timed interval of a traced op. Spans of one op share Op;
// Parent indexes the enclosing span in the run's list (-1 for the op
// itself). Self is the duration minus the time covered by child spans
// (see finish).
// Approx marks a round whose start is the previous event's stamp rather
// than the round's own start (the first round of an engine run that no
// wrapper observes).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Approx bool   `json:"approx,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// phaseLevel orders the program's phase events by nesting depth: an event
// closes every open phase span of its own or a deeper level and opens a
// span inside the rest. oldc/basic is the solver inside γ-class selection
// and inside every repair; unlisted names nest innermost.
func phaseLevel(name string) int {
	switch {
	case strings.HasPrefix(name, "congest/"), strings.HasPrefix(name, "serve/"):
		return 1
	case name == "arb/batch":
		return 3
	case strings.HasPrefix(name, "arb/"):
		return 2
	case strings.HasPrefix(name, "csr/"):
		return 4
	case name == "oldc/basic":
		return 6
	case strings.HasPrefix(name, "oldc/"):
		return 5
	default:
		return 7
	}
}

// recorder is the benchmark's obs.Tracer. It stamps every Phase and Round
// call, turns them into spans nested under the spans the benchmark opens
// around its own calls, and keeps them in memory until the run ends. It
// also carries the obs.Registry the traced run installs.
type recorder struct {
	reg  *obs.Registry
	base time.Time

	mu    sync.Mutex
	spans []span
	open  []int // indices of open spans, innermost last
	level []int // phaseLevel of each open span; 0 for the benchmark's own
	last  int64 // stamp of the latest event
	op    int   // index of the current op (its span is open[0])
	alg   *timedAlg

	runs, messages int64 // engine runs and delivered messages seen
	// messages and bits of the rounds a timedAlg split, for route rates
	splitMessages, splitBits int64
	cpuNs                    map[string][2]int64 // per layer: Outbox and Inbox callback time
}

func newRecorder() *recorder {
	return &recorder{reg: obs.NewRegistry(), base: time.Now(), cpuNs: map[string][2]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// push opens a span at the given level under the innermost open span.
func (r *recorder) push(name string, level int, at int64) {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: at})
	r.open = append(r.open, len(r.spans)-1)
	r.level = append(r.level, level)
	r.last = at
}

// pop closes the innermost open span at the given time.
func (r *recorder) pop(at int64) {
	i := r.open[len(r.open)-1]
	r.spans[i].End = at
	r.open = r.open[:len(r.open)-1]
	r.level = r.level[:len(r.level)-1]
	r.last = at
}

// popPhases closes open phase spans of level ≥ min, innermost first.
func (r *recorder) popPhases(min int, at int64) {
	for len(r.open) > 0 && r.level[len(r.level)-1] >= min {
		r.pop(at)
	}
}

// beginOp opens the span of one op and returns its index; endOp closes it
// with everything inside.
func (r *recorder) beginOp(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.push(name, 0, r.now())
	r.op = len(r.spans) - 1
	return r.op
}

func (r *recorder) endOp() {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.now()
	for len(r.open) > 0 {
		r.pop(at)
	}
}

// begin and end bracket one call the benchmark makes into a layer.
func (r *recorder) begin(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.push(name, 0, r.now())
}

func (r *recorder) end() {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.now()
	r.popPhases(1, at)
	r.pop(at)
}

// Start implements obs.Tracer; the run header is not a span.
func (r *recorder) Start(obs.RunInfo) {}

// End implements obs.Tracer; run totals are not spans.
func (r *recorder) End(obs.Totals) {}

// Phase implements obs.Tracer.
func (r *recorder) Phase(name string, _ obs.Attrs) {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) == 0 {
		return // outside any op, e.g. the solve inside serve.OpenDurable
	}
	lv := phaseLevel(name)
	r.popPhases(lv, at)
	r.push(name, lv, at)
}

// Round implements obs.Tracer. The engine calls it after a round's Inbox
// phase, so its stamp ends the round. With a timedAlg installed the round
// starts at the wrapper's Done stamp and splits into collect, route and
// deliver children.
func (r *recorder) Round(info obs.RoundInfo) {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) == 0 {
		return
	}
	if info.Round == 0 {
		r.runs++
	}
	r.messages += info.Messages
	parent := r.open[len(r.open)-1]
	s := span{Name: "round", Op: r.op, Parent: parent, Start: r.last, End: at, Approx: info.Round == 0}
	a := r.alg
	if a != nil {
		s.Start, s.Approx = a.roundStart, false
	}
	r.spans = append(r.spans, s)
	r.last = at
	if a == nil {
		return
	}
	r.splitMessages += info.Messages
	r.splitBits += info.Bits
	round := len(r.spans) - 1
	collectEnd, deliverStart := a.phaseBounds()
	for _, c := range []span{
		{Name: "collect", Start: s.Start, End: collectEnd},
		{Name: "route", Start: collectEnd, End: deliverStart},
		{Name: "deliver", Start: deliverStart, End: at},
	} {
		c.Op, c.Parent = r.op, round
		r.spans = append(r.spans, c)
	}
}

// finish computes every span's self time; call once the run has ended.
// Engine rounds count toward the span that ran them, so only child spans
// other than rounds are subtracted.
func (r *recorder) finish() {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].dur()
	}
	for _, s := range r.spans {
		if s.Parent >= 0 && s.Name != "round" {
			r.spans[s.Parent].Self -= s.dur()
		}
	}
}

// layerTotals sums the spans of one name over the run.
type layerTotals struct {
	count     int
	dur, self int64
}

func (r *recorder) totals() map[string]layerTotals {
	t := map[string]layerTotals{}
	for _, s := range r.spans {
		lt := t[s.Name]
		lt.count++
		lt.dur += s.dur()
		lt.self += s.Self
		t[s.Name] = lt
	}
	return t
}

// maxRoundNs is the longest round whose start is known exactly.
func (r *recorder) maxRoundNs() int64 {
	var m int64
	for _, s := range r.spans {
		if s.Name == "round" && !s.Approx && s.dur() > m {
			m = s.dur()
		}
	}
	return m
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedAlg wraps an algorithm to split each engine round from outside:
// Done marks the start of a round, the last Outbox return ends collect,
// and the first Inbox call starts deliver. Each callback is timed; the
// per-node slots are written by one worker at a time, so no callback
// contends on shared counters.
type timedAlg struct {
	inner      sim.Algorithm
	quiescent  sim.Quiescent
	rec        *recorder
	roundStart int64
	outEnd     []int64 // per node: when its latest Outbox returned
	inStart    []int64 // per node: when its latest Inbox began
	outNs      []int64 // per node: total Outbox time
	inNs       []int64 // per node: total Inbox time
}

func newTimedAlg(inner sim.Algorithm, n int, rec *recorder) *timedAlg {
	a := &timedAlg{
		inner: inner, rec: rec,
		outEnd: make([]int64, n), inStart: make([]int64, n),
		outNs: make([]int64, n), inNs: make([]int64, n),
	}
	a.quiescent, _ = inner.(sim.Quiescent)
	return a
}

// Outbox implements sim.Algorithm.
func (a *timedAlg) Outbox(v int, out *sim.Outbox) {
	t0 := a.rec.now()
	a.inner.Outbox(v, out)
	t1 := a.rec.now()
	a.outEnd[v] = t1
	a.outNs[v] += t1 - t0
}

// Inbox implements sim.Algorithm.
func (a *timedAlg) Inbox(v int, in []sim.Received) {
	t0 := a.rec.now()
	a.inStart[v] = t0
	a.inner.Inbox(v, in)
	a.inNs[v] += a.rec.now() - t0
}

// Done implements sim.Algorithm; the engine calls it before every round.
func (a *timedAlg) Done() bool {
	a.roundStart = a.rec.now()
	return a.inner.Done()
}

// Quiesced forwards sim.Quiescent; an algorithm without it never quiesces.
func (a *timedAlg) Quiesced() bool {
	return a.quiescent != nil && a.quiescent.Quiesced()
}

// phaseBounds returns when the round's collect phase ended and its deliver
// phase began. The engine's barriers order the two phases, so the last
// Outbox return precedes the first Inbox call.
func (a *timedAlg) phaseBounds() (collectEnd, deliverStart int64) {
	collectEnd, deliverStart = a.roundStart, math.MaxInt64
	for v := range a.outEnd {
		if a.outEnd[v] > collectEnd {
			collectEnd = a.outEnd[v]
		}
		if a.inStart[v] < deliverStart {
			deliverStart = a.inStart[v]
		}
	}
	return collectEnd, deliverStart
}

// callbackNs returns the total Outbox and Inbox time over all nodes.
func (a *timedAlg) callbackNs() (out, in int64) {
	for v := range a.outNs {
		out += a.outNs[v]
		in += a.inNs[v]
	}
	return out, in
}

// timedRunner is a sim.Runner that runs every algorithm it is handed
// through a timedAlg on the wrapped engine, for layers such as
// baseline.DegreeLuby that take a runner and build their algorithm inside.
type timedRunner struct {
	eng   *sim.Engine
	rec   *recorder
	cpuNs [2]int64 // Outbox and Inbox time of the runs so far
}

// Run implements sim.Runner.
func (t *timedRunner) Run(alg sim.Algorithm, maxRounds int) (sim.Stats, error) {
	a := t.rec.install(alg, t.eng.Graph().N())
	defer t.rec.uninstall()
	st, err := t.eng.Run(a, maxRounds)
	out, in := a.callbackNs()
	t.cpuNs[0] += out
	t.cpuNs[1] += in
	return st, err
}

// ReportDecodeFault implements sim.Runner.
func (t *timedRunner) ReportDecodeFault() { t.eng.ReportDecodeFault() }

// cpu adds one wrapped engine run's callback time to a layer's total.
func (r *recorder) cpu(layer string, outNs, inNs int64) {
	t := r.cpuNs[layer]
	r.cpuNs[layer] = [2]int64{t[0] + outNs, t[1] + inNs}
}

// install wraps alg for the engine run that follows and routes its round
// stamps to this recorder; uninstall ends that.
func (r *recorder) install(alg sim.Algorithm, n int) *timedAlg {
	a := newTimedAlg(alg, n, r)
	r.mu.Lock()
	r.alg = a
	r.mu.Unlock()
	return a
}

func (r *recorder) uninstall() {
	r.mu.Lock()
	r.alg = nil
	r.mu.Unlock()
}
