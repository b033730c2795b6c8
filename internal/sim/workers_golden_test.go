package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// goldenWorkers are the worker counts every digest below is checked at; 7
// does not divide the test graph orders, so the last worker's node range
// is ragged.
var goldenWorkers = []int{1, 2, 4, 7}

// The digests were recorded from the serial two-pass router that the
// sharded round loop replaced, with one worker; each hashes the complete
// observable output of one scenario (Stats, delivered-message sums,
// colorings, JSONL trace bytes). The merged engine must reproduce every one
// at every worker count.
const (
	digestMixed         = "fb8e7ba383d5abf1"
	digestFaulted       = "507f41de7abb7f1a"
	digestLubyGNP       = "490e2b2ee5ff9858"
	digestLubyPA        = "fb74c5eafef72006"
	digestDegreeLuby    = "0219044c2db475a0"
	digestTrace         = "9e115d9b8bc78737"
	digestBandwidth     = "5eb3f565918f5100"
	digestValidate      = "6dd97fe1b742f709"
	digestQuiescence    = "999505aef278f81a"
	digestKillFaultFree = "14c80c390eea6060"
	digestKillDrop      = "e9b3764d96348d3a"
	digestAcross        = "de317d5dc8bc835a"

	errBandwidth = "sim: round 0 message 0->2 is 4 bits, exceeds bandwidth 3"
	errValidate  = "sim: round 0: node 2 sent to non-neighbor 2"
)

// digest hashes the %#v rendering of each part (byte slices raw), so any
// change to a Stats field, a coloring entry or a trace byte changes it.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		if b, ok := p.([]byte); ok {
			h.Write(b)
		} else {
			fmt.Fprintf(h, "%#v", p)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func checkDigest(t *testing.T, tag, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: digest %s, want %s", tag, got, want)
	}
}

// goldenMixed exercises every messaging shape at once — a broadcast, a
// targeted send, and periodically a second broadcast (same sender/receiver
// pair twice in one round). The seen sums are weighted by inbox position,
// so any reordering of an inbox changes them.
type goldenMixed struct {
	g     *graph.Graph
	eng   *sim.Engine // for ReportDecodeFault; nil outside fault tests
	round int
	seen  []int64
}

func newGoldenMixed(g *graph.Graph) *goldenMixed {
	return &goldenMixed{g: g, seen: make([]int64, g.N())}
}

func (a *goldenMixed) Outbox(v int, out *sim.Outbox) {
	out.Broadcast(sim.VarintPayload{Value: uint64(v + a.round)})
	if nbr := a.g.Neighbors(v); len(nbr) > 0 {
		out.SendTo(int(nbr[0]), sim.UintPayload{Value: uint64(v % 16), Width: 4})
	}
	if a.round%3 == 0 {
		out.Broadcast(sim.BitsetPayload{Set: []int{v % 7}, Universe: 7})
	}
}

func (a *goldenMixed) Inbox(v int, in []sim.Received) {
	for i, m := range in {
		a.seen[v] += int64(m.From+1) * int64(i+1)
		if _, corrupt := m.Payload.(sim.CorruptPayload); corrupt && a.eng != nil {
			a.eng.ReportDecodeFault()
		}
	}
}

func (a *goldenMixed) Done() bool {
	a.round++
	return a.round > 10
}

// runMixed runs the mixed workload and returns its digest.
func runMixed(t *testing.T, g *graph.Graph, workers int, opts sim.Options) string {
	t.Helper()
	opts.Workers = workers
	eng := sim.NewEngineWith(g, opts)
	alg := newGoldenMixed(g)
	alg.eng = eng
	stats, err := eng.Run(alg, 12)
	if err != nil {
		t.Fatal(err)
	}
	return digest(stats, alg.seen)
}

// TestGoldenStatsAcrossWorkers pins Stats and delivered message state of
// the mixed workload.
func TestGoldenStatsAcrossWorkers(t *testing.T) {
	g := graph.GNP(150, 0.08, 42)
	for _, w := range goldenWorkers {
		checkDigest(t, fmt.Sprintf("workers=%d", w), runMixed(t, g, w, sim.Options{}), digestMixed)
	}
}

// TestGoldenFaultedLedger runs a chaos schedule (i.i.d. drops composed with
// bit flips) and pins the full Stats, including the per-round fault ledger
// and the receiver-reported decode faults.
func TestGoldenFaultedLedger(t *testing.T) {
	g := graph.GNP(120, 0.1, 7)
	model := chaos.Compose(chaos.Drop(11, 0.2), chaos.Flip(13, 0.15))
	for _, w := range goldenWorkers {
		checkDigest(t, fmt.Sprintf("workers=%d", w), runMixed(t, g, w, sim.Options{Faults: model}), digestFaulted)
	}
}

// TestGoldenLubyColoring pins the full randomized solve — coloring and
// Stats — on both generator families.
func TestGoldenLubyColoring(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"gnp", graph.GNP(200, 0.05, 3), digestLubyGNP},
		{"pa", graph.PreferentialAttachment(200, 3, 9), digestLubyPA},
	}
	for _, tc := range graphs {
		for _, w := range goldenWorkers {
			phi, stats, err := baseline.Luby(sim.NewEngineWith(tc.g, sim.Options{Workers: w}), tc.g, 17)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			checkDigest(t, fmt.Sprintf("%s workers=%d", tc.name, w), digest(phi, stats), tc.want)
		}
	}
}

// TestGoldenDegreeLuby does the same for the degree+1-palette variant.
func TestGoldenDegreeLuby(t *testing.T) {
	g := graph.PreferentialAttachment(300, 3, 21)
	for _, w := range goldenWorkers {
		phi, stats, err := baseline.DegreeLuby(sim.NewEngineWith(g, sim.Options{Workers: w}), g, 5)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", w), digest(phi, stats), digestDegreeLuby)
	}
}

// TestGoldenTraces pins the JSONL round trace bytes: the tracer runs on
// the coordinator after the round's merge, so worker scheduling never
// leaks into them.
func TestGoldenTraces(t *testing.T) {
	g := graph.GNP(80, 0.1, 5)
	for _, w := range goldenWorkers {
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		if _, err := sim.NewEngineWith(g, sim.Options{Workers: w, Tracer: tr}).Run(newGoldenMixed(g), 12); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", w), digest(buf.Bytes()), digestTrace)
	}
}

// TestGoldenBandwidthError pins the CONGEST assertion path: the same first
// violating wire and the same partially accounted Stats.
func TestGoldenBandwidthError(t *testing.T) {
	g := graph.GNP(60, 0.15, 2)
	for _, w := range goldenWorkers {
		stats, err := sim.NewEngineWith(g, sim.Options{Workers: w, Bandwidth: 3}).Run(newGoldenMixed(g), 12)
		if err == nil || err.Error() != errBandwidth {
			t.Errorf("workers=%d: error %v, want %q", w, err, errBandwidth)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", w), digest(stats), digestBandwidth)
	}
}

// badSender targets a non-neighbor from node 2 in round 1.
type badSender struct{ round int }

func (a *badSender) Outbox(v int, out *sim.Outbox) {
	if a.round == 1 && v == 2 {
		out.SendTo(v, sim.UintPayload{Value: 1, Width: 1}) // self is never adjacent
	}
}
func (a *badSender) Inbox(int, []sim.Received) {}
func (a *badSender) Done() bool                { a.round++; return a.round > 4 }

// TestGoldenValidateError pins the Validate error path: the same message,
// and the failing round's routing never reaches Stats.
func TestGoldenValidateError(t *testing.T) {
	g := graph.Ring(12)
	for _, w := range goldenWorkers {
		stats, err := sim.NewEngineWith(g, sim.Options{Workers: w, Validate: true}).Run(&badSender{}, 8)
		if err == nil || err.Error() != errValidate {
			t.Errorf("workers=%d: error %v, want %q", w, err, errValidate)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", w), digest(stats), digestValidate)
	}
}

// floodOnce broadcasts in the first round only, then quiesces. Done runs
// before each round's Outbox, so round is 1 during the first collection.
type floodOnce struct{ round int }

func (a *floodOnce) Outbox(v int, out *sim.Outbox) {
	if a.round == 1 {
		out.Broadcast(sim.UintPayload{Value: uint64(v), Width: 10})
	}
}
func (a *floodOnce) Inbox(int, []sim.Received) {}
func (a *floodOnce) Done() bool                { a.round++; return false }
func (a *floodOnce) Quiesced() bool            { return true }

// TestGoldenQuiescence pins early termination on network silence.
func TestGoldenQuiescence(t *testing.T) {
	g := graph.Torus(5, 6)
	for _, w := range goldenWorkers {
		stats, err := sim.NewEngineWith(g, sim.Options{Workers: w}).Run(&floodOnce{}, 100)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds >= 100 {
			t.Fatalf("workers=%d: quiescence did not trigger", w)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", w), digest(stats), digestQuiescence)
	}
}

// runUninterrupted runs DegreeLuby to completion with a trace and no
// hooks and returns the digest of its coloring, Stats and trace bytes.
func runUninterrupted(t *testing.T, g *graph.Graph, workers int, faults sim.FaultModel, seed int64) string {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	eng := sim.NewEngineWith(g, sim.Options{Workers: workers, Faults: faults, Tracer: tr})
	alg := baseline.NewDegreeLuby(g, seed)
	stats, err := eng.RunFrom(alg, 0, baseline.DegreeLubyMaxRounds(g.N()), sim.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return digest(alg.Colors(), stats, buf.Bytes())
}

// errInjectedKill simulates process death at a round boundary.
var errInjectedKill = errors.New("injected kill")

// runKilled executes with a checkpoint hook on `workers` workers, aborts
// at killRound, then resumes from the image on resumeWorkers workers the
// way cmd/ldc-run's supervisor does: truncate the trace to the checkpoint
// boundary, rebuild the algorithm from its constructor inputs, restore,
// and continue on the absolute round clock with the checkpoint's Stats as
// prior. It returns the digest of the finished run's coloring, Stats and
// trace bytes.
func runKilled(t *testing.T, g *graph.Graph, workers, resumeWorkers int, faults sim.FaultModel, seed int64, killRound, every int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	maxRounds := baseline.DegreeLubyMaxRounds(g.N())

	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	eng := sim.NewEngineWith(g, sim.Options{Workers: workers, Faults: faults, Tracer: tr})
	alg := baseline.NewDegreeLuby(g, seed)
	ckp := &sim.Checkpointer{Path: path, Every: every, TraceSync: func() (int64, error) {
		if err := tr.Flush(); err != nil {
			return 0, err
		}
		return int64(buf.Len()), nil
	}}
	eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
		if round == killRound {
			return errInjectedKill
		}
		return nil
	}))
	stats, err := eng.RunFrom(alg, 0, maxRounds, sim.Stats{})
	if err == nil {
		// The run terminated before the kill round; nothing to resume.
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return digest(alg.Colors(), stats, buf.Bytes())
	}
	if !errors.Is(err, errInjectedKill) {
		t.Fatalf("killed run failed with %v, want injected kill", err)
	}

	ck, err := sim.ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if ck.Round < 1 || ck.Round > killRound+1 {
		t.Fatalf("checkpoint round %d outside (0, %d]", ck.Round, killRound+1)
	}
	buf.Truncate(int(ck.TraceOffset))
	tr2 := obs.NewJSONL(&buf)
	eng2 := sim.NewEngineWith(g, sim.Options{Workers: resumeWorkers, Faults: faults, Tracer: tr2})
	alg2 := baseline.NewDegreeLuby(g, seed)
	if err := ck.Restore(alg2); err != nil {
		t.Fatalf("restore: %v", err)
	}
	stats, err = eng2.RunFrom(alg2, ck.Round, maxRounds, ck.Stats)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := tr2.Flush(); err != nil {
		t.Fatal(err)
	}
	return digest(alg2.Colors(), stats, buf.Bytes())
}

// TestGoldenKillResume pins the recovery contract: a DegreeLuby solve
// killed at a round boundary and resumed from its checkpoint produces a
// coloring, Stats and JSONL trace byte-identical to a run that never
// stopped, at several kill rounds and checkpoint cadences, fault-free and
// under a chaos drop schedule.
func TestGoldenKillResume(t *testing.T) {
	g := graph.PreferentialAttachment(220, 3, 21)
	const seed = 5
	schedules := []struct {
		name   string
		faults sim.FaultModel
		want   string
	}{
		{"fault-free", nil, digestKillFaultFree},
		{"drop-15pct", chaos.Drop(11, 0.15), digestKillDrop},
	}
	if phi, _, err := baseline.DegreeLuby(sim.NewEngine(g), g, seed); err != nil {
		t.Fatal(err)
	} else if err := coloring.CheckProper(g, phi, g.MaxDegree()+1); err != nil {
		t.Fatalf("reference coloring invalid: %v", err)
	}
	for _, sc := range schedules {
		for _, w := range goldenWorkers {
			tag := fmt.Sprintf("%s workers=%d", sc.name, w)
			checkDigest(t, tag, runUninterrupted(t, g, w, sc.faults, seed), sc.want)
			for _, kill := range []int{1, 2, 5} {
				for _, every := range []int{1, 2} {
					got := runKilled(t, g, w, w, sc.faults, seed, kill, every)
					checkDigest(t, fmt.Sprintf("%s kill=%d every=%d", tag, kill, every), got, sc.want)
				}
			}
		}
	}
}

// TestKillResumeAcrossWorkers pins that a checkpoint written at one worker
// count resumes at another: the image carries only algorithm state and the
// round clock.
func TestKillResumeAcrossWorkers(t *testing.T) {
	g := graph.GNP(150, 0.06, 9)
	const seed, kill = 7, 3
	checkDigest(t, "uninterrupted", runUninterrupted(t, g, 1, nil, seed), digestAcross)
	for _, p := range [][2]int{{1, 4}, {4, 1}, {2, 7}} {
		got := runKilled(t, g, p[0], p[1], nil, seed, kill, 1)
		checkDigest(t, fmt.Sprintf("killed at %d workers, resumed at %d", p[0], p[1]), got, digestAcross)
	}
}

// TestPartitionCensus pins the census on a graph where it is computable by
// hand: the ring 0-1-...-7-0 split over two workers has exactly two
// crossing edges and four ghost references.
func TestPartitionCensus(t *testing.T) {
	g := graph.Ring(8)
	if ghosts, boundary := sim.NewEngineWith(g, sim.Options{Workers: 2}).Census(); ghosts != 4 || boundary != 2 {
		t.Errorf("two workers: ghosts=%d boundary=%d, want 4 and 2", ghosts, boundary)
	}
	if ghosts, boundary := sim.NewEngineWith(g, sim.Options{Workers: 1}).Census(); ghosts != 0 || boundary != 0 {
		t.Errorf("one worker: ghosts=%d boundary=%d, want 0 and 0", ghosts, boundary)
	}
}

// TestShardGauges checks the ldc_shard_* gauges an engine publishes into
// its metrics registry: ghost nodes from the census, boundary messages
// accumulated over the run. The sim round counters match a one-worker run.
func TestShardGauges(t *testing.T) {
	g := graph.Ring(16)
	reg := obs.NewRegistry()
	eng := sim.NewEngineWith(g, sim.Options{Workers: 4, Metrics: reg})
	if _, err := eng.Run(&floodOnce{}, 10); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	ghosts, _ := eng.Census()
	if got := snap.Gauges[obs.MetricShardGhostNodes]; got != ghosts || ghosts != 8 {
		t.Errorf("ghost gauge = %d, census %d, want 8", got, ghosts)
	}
	// Round 0 floods every wire; 8 of them (2 per cut, 4 cuts) cross
	// shards.
	if got := snap.Gauges[obs.MetricShardBoundaryMsgs]; got != 8 {
		t.Errorf("boundary gauge = %d, want 8", got)
	}
	oneReg := obs.NewRegistry()
	if _, err := sim.NewEngineWith(g, sim.Options{Workers: 1, Metrics: oneReg}).Run(&floodOnce{}, 10); err != nil {
		t.Fatal(err)
	}
	want := oneReg.Snapshot()
	for _, name := range []string{obs.MetricRounds, obs.MetricMessages, obs.MetricBits} {
		if snap.Counters[name] != want.Counters[name] {
			t.Errorf("%s = %d, want %d (one worker)", name, snap.Counters[name], want.Counters[name])
		}
	}
}
