package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sim"
)

// KillRecoveryEntry is one supervised DegreeLuby run under a built-in
// kill plan: how many times the process died, what resuming from the
// round-boundary checkpoint cost, and whether the final coloring still
// matches an uninterrupted run.
type KillRecoveryEntry struct {
	Plan     string `json:"plan"`
	Spec     string `json:"spec"`
	N        int    `json:"n"`
	Delta    int    `json:"delta"`
	Rounds   int    `json:"rounds"`
	Restarts int    `json:"restarts"`
	// RestoreMs is the cumulative checkpoint read+restore latency across
	// all restarts — the recovery cost that is not re-executed rounds
	// (cadence 1 means no rounds are replayed).
	RestoreMs float64 `json:"restore_ms"`
	TotalMs   float64 `json:"total_ms"`
	CkptBytes int     `json:"ckpt_bytes"`
	Valid     bool    `json:"valid"`
	// Identical reports whether the resumed coloring is bit-identical to
	// the same seed's uninterrupted run (the checkpoint determinism
	// contract; wire-fault plans excepted, where both runs share faults).
	Identical bool `json:"identical_to_uninterrupted"`
}

// WALReplayEntry is one durable-store crash/reopen cycle: a churn history
// is written through the WAL, the store is abandoned, and a fresh open
// replays the full log. ReplayMs is the complete open latency (snapshot
// load + WAL replay + re-solve of each batch).
type WALReplayEntry struct {
	Delta          int     `json:"delta"`
	N              int     `json:"n"`
	Batches        int     `json:"batches"`
	Mutations      int     `json:"mutations"`
	WALBytes       int64   `json:"wal_bytes"`
	ReplayMs       float64 `json:"replay_ms"`
	BatchesPerSec  float64 `json:"batches_per_sec"`
	MBPerSec       float64 `json:"mb_per_sec"`
	RestoredEqual  bool    `json:"restored_identical"`
	SnapshotBytes  int     `json:"snapshot_bytes"`
	SnapRestoreMs  float64 `json:"snap_restore_ms"`
	SnapshotEvery  int     `json:"snapshot_every"`
	CompactedBatch int     `json:"batches_after_snapshot"`
}

// RecoverBenchReport is the machine-readable BENCH_recover.json payload
// (schema ldc-recover-bench/v1): crash-recovery figures for both
// execution layers at Δ=8 and Δ=64 — supervised kill/resume latency for
// engine runs, and WAL replay throughput for the durable serve store.
type RecoverBenchReport struct {
	Schema string              `json:"schema"`
	Date   string              `json:"date"`
	GoOS   string              `json:"goos"`
	GoArch string              `json:"goarch"`
	CPUs   int                 `json:"cpus"`
	Kills  []KillRecoveryEntry `json:"kill_recovery"`
	WAL    []WALReplayEntry    `json:"wal_replay"`
}

// WriteJSON writes the report to path, or to stdout when path is "-".
func (rep RecoverBenchReport) WriteJSON(path string) error { return writeBenchJSON(path, rep) }

// runKillPlan executes one supervised DegreeLuby run under the plan,
// checkpointing every round, and reports the recovery accounting. Plans
// with shard kills run on 4 workers; the coloring is worker-independent
// either way.
func runKillPlan(g *graph.Graph, delta int, seed int64, np chaos.NamedPlan, ckptPath string) (KillRecoveryEntry, error) {
	e := KillRecoveryEntry{Plan: np.Name, Spec: np.Spec, N: g.N(), Delta: delta}
	maxRounds := baseline.DegreeLubyMaxRounds(g.N())
	workers := 0
	for _, k := range np.Plan.Kills {
		if k.Shard >= 0 {
			workers = 4
		}
	}
	ckp := &sim.Checkpointer{Path: ckptPath, Every: 1}
	killHook := np.Plan.KillHook()
	var (
		phi        coloring.Assignment
		stats      sim.Stats
		restoreDur time.Duration
	)
	start := time.Now()
	err := chaos.Supervise(chaos.SuperviseOptions{
		MaxRestarts: 2 * len(np.Plan.Kills),
		Sleep:       func(time.Duration) {}, // latency figures exclude backoff
	}, func(attempt int) error {
		alg := baseline.NewDegreeLuby(g, seed)
		eng := sim.NewEngineWith(g, sim.Options{Workers: workers, Faults: np.Plan.Model})
		eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), killHook))
		startRound, prior := 0, sim.Stats{}
		if attempt > 0 {
			t0 := time.Now()
			ck, err := sim.ReadCheckpoint(ckptPath)
			if err != nil {
				return err
			}
			if err := ck.Restore(alg); err != nil {
				return err
			}
			restoreDur += time.Since(t0)
			e.Restarts = attempt
			startRound, prior = ck.Round, ck.Stats
		}
		s, err := eng.RunFrom(alg, startRound, maxRounds, prior)
		if err != nil {
			return err
		}
		stats, phi = s, alg.Colors()
		return nil
	})
	if err != nil {
		return e, fmt.Errorf("bench: recover plan %s: %w", np.Name, err)
	}
	e.TotalMs = float64(time.Since(start).Microseconds()) / 1e3
	e.RestoreMs = float64(restoreDur.Microseconds()) / 1e3
	e.Rounds = stats.Rounds
	if img, err := os.ReadFile(ckptPath); err == nil {
		e.CkptBytes = len(img)
	}
	e.Valid = coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil

	// Uninterrupted reference under the same wire-fault model (no kills):
	// the supervised run must land on the identical coloring.
	refAlg := baseline.NewDegreeLuby(g, seed)
	refEng := sim.NewEngineWith(g, sim.Options{Faults: np.Plan.Model})
	if _, err := refEng.Run(refAlg, maxRounds); err != nil {
		return e, fmt.Errorf("bench: recover plan %s reference: %w", np.Name, err)
	}
	e.Identical = reflect.DeepEqual(phi, refAlg.Colors())
	return e, nil
}

// runWALReplay writes a deterministic churn history through a durable
// store, abandons it without closing (simulating a crash), and measures
// a fresh open's full recovery latency. SnapshotEvery is set mid-history
// so the reopen exercises both the snapshot load and WAL replay paths.
func runWALReplay(delta, n, batches int, dir string) (WALReplayEntry, error) {
	snapEvery := batches/2 + 1 // one compaction mid-run, then WAL grows again
	e := WALReplayEntry{Delta: delta, N: n, Batches: batches, SnapshotEvery: snapEvery}
	cfg := serve.Config{Seed: 7}
	mkGraph := func() *graph.Graph { return graph.RandomRegular(n, delta, 1) }
	d, err := serve.OpenDurable(mkGraph(), cfg, dir, serve.DurableOptions{
		SnapshotEvery: snapEvery, SyncEvery: 8,
	})
	if err != nil {
		return e, fmt.Errorf("bench: wal Δ=%d open: %w", delta, err)
	}
	ref, err := serve.New(mkGraph(), cfg)
	if err != nil {
		return e, fmt.Errorf("bench: wal Δ=%d reference: %w", delta, err)
	}
	rng := rand.New(rand.NewSource(int64(delta)))
	for b := 0; b < batches; b++ {
		o, _, _ := d.Server().Instance()
		batch := serveChurnBatch(rng, o.Graph(), 1+rng.Intn(8))
		if _, err := d.Apply(batch); err != nil {
			return e, fmt.Errorf("bench: wal Δ=%d batch %d: %w", delta, b, err)
		}
		if _, err := ref.Apply(batch); err != nil {
			return e, fmt.Errorf("bench: wal Δ=%d reference batch %d: %w", delta, b, err)
		}
		e.Mutations += len(batch)
	}
	if err := d.Sync(); err != nil {
		return e, err
	}
	gen := d.Generation()
	e.CompactedBatch = batches - snapEvery*gen
	// Crash: the store is abandoned with its WAL fsynced but never Closed.
	if st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", gen))); err == nil {
		e.WALBytes = st.Size()
	}
	img := d.Server().EncodeState()
	e.SnapshotBytes = len(img)
	t0 := time.Now()
	if _, err := serve.FromState(img, cfg); err != nil {
		return e, fmt.Errorf("bench: wal Δ=%d snapshot decode: %w", delta, err)
	}
	e.SnapRestoreMs = float64(time.Since(t0).Microseconds()) / 1e3

	t0 = time.Now()
	d2, err := serve.OpenDurable(nil, cfg, dir, serve.DurableOptions{SnapshotEvery: snapEvery, SyncEvery: 8})
	if err != nil {
		return e, fmt.Errorf("bench: wal Δ=%d reopen: %w", delta, err)
	}
	defer d2.Close()
	replay := time.Since(t0)
	if derr := d2.Degraded(); derr != nil {
		return e, fmt.Errorf("bench: wal Δ=%d reopen degraded: %w", delta, derr)
	}
	e.ReplayMs = float64(replay.Microseconds()) / 1e3
	if replay > 0 {
		e.BatchesPerSec = float64(e.CompactedBatch) / replay.Seconds()
		e.MBPerSec = float64(e.WALBytes) / (1 << 20) / replay.Seconds()
	}
	e.RestoredEqual = reflect.DeepEqual(d2.Server().Snapshot(), ref.Snapshot())
	return e, nil
}

// RunRecoverBench measures crash recovery at Δ=8 and Δ=64 on both
// execution layers: supervised engine runs under every built-in kill
// plan (checkpoint restore latency, restart counts, determinism against
// an uninterrupted run), and durable-store reopens (snapshot decode and
// WAL replay throughput after a simulated crash). Everything except the
// wall clock is deterministic.
func RunRecoverBench() (RecoverBenchReport, error) {
	rep := RecoverBenchReport{
		Schema: "ldc-recover-bench/v1",
		Date:   time.Now().UTC().Format("2006-01-02"),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
	scratch, err := os.MkdirTemp("", "ldc-recover-bench")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(scratch)

	cases := []struct{ delta, n int }{{8, 256}, {64, 512}}
	for _, tc := range cases {
		g := graph.RandomRegular(tc.n, tc.delta, 1)
		for i, np := range chaos.BuiltinRecovery(g, 42) {
			ckpt := filepath.Join(scratch, fmt.Sprintf("d%d-%d.ckpt", tc.delta, i))
			e, err := runKillPlan(g, tc.delta, 11, np, ckpt)
			if err != nil {
				return rep, err
			}
			rep.Kills = append(rep.Kills, e)
		}
	}
	walCases := []struct{ delta, n, batches int }{{8, 512, 200}, {64, 256, 60}}
	for _, tc := range walCases {
		dir := filepath.Join(scratch, fmt.Sprintf("wal-d%d", tc.delta))
		e, err := runWALReplay(tc.delta, tc.n, tc.batches, dir)
		if err != nil {
			return rep, err
		}
		rep.WAL = append(rep.WAL, e)
	}
	return rep, nil
}
