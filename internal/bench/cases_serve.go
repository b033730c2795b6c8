package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/oldc"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveConfig is the service configuration of every serve and WAL case.
var serveConfig = serve.Config{Seed: 7}

// churn is a sustained-churn workload: a random Δ-regular graph on n
// nodes and a fixed number of mutation batches.
type churn struct{ delta, n, batches int }

func (c churn) params() map[string]any {
	return map[string]any{"delta": c.delta, "n": c.n, "batches": c.batches}
}

func churnWorkloads(quick bool) []churn {
	if quick {
		return []churn{{8, 128, 30}, {16, 64, 20}}
	}
	return []churn{{8, 512, 200}, {64, 256, 60}}
}

// serveChurnBatch generates one valid mutation batch against the live
// graph. Mutations within a batch touch disjoint endpoints, so validity
// against the pre-batch graph implies validity during application.
func serveChurnBatch(rng *rand.Rand, g *graph.Graph, size int) []serve.Mutation {
	var batch []serve.Mutation
	touched := map[int]bool{}
	free := func(vs ...int) bool {
		for _, v := range vs {
			if touched[v] {
				return false
			}
		}
		for _, v := range vs {
			touched[v] = true
		}
		return true
	}
	for len(batch) < size {
		switch rng.Intn(12) {
		case 0:
			batch = append(batch, serve.Mutation{Op: serve.OpAddNode})
		case 1:
			v := rng.Intn(g.N())
			if free(v) {
				batch = append(batch, serve.Mutation{Op: serve.OpRemoveNode, U: v})
			}
		case 2, 3, 4, 5, 6:
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) && free(u, v) {
				batch = append(batch, serve.Mutation{Op: serve.OpAddEdge, U: u, V: v})
			}
		default:
			u := rng.Intn(g.N())
			if nbrs := g.Neighbors(u); len(nbrs) > 0 {
				v := int(nbrs[rng.Intn(len(nbrs))])
				if free(u, v) {
					batch = append(batch, serve.Mutation{Op: serve.OpRemoveEdge, U: u, V: v})
				}
			}
		}
	}
	return batch
}

// script draws the workload's deterministic mutation history (batches of
// 1–8 mutations against the live graph, seeded by Δ) by applying it to a
// reference server, which it returns in its final state.
func (c churn) script() ([][]serve.Mutation, *serve.Server, error) {
	ref, err := serve.New(graph.RandomRegular(c.n, c.delta, 1), serveConfig)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(int64(c.delta)))
	script := make([][]serve.Mutation, 0, c.batches)
	for b := 0; b < c.batches; b++ {
		o, _, _ := ref.Instance()
		batch := serveChurnBatch(rng, o.Graph(), 1+rng.Intn(8))
		if _, err := ref.Apply(batch); err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", b, err)
		}
		script = append(script, batch)
	}
	return script, ref, nil
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p int) time.Duration {
	return sorted[max((p*len(sorted)+99)/100-1, 0)]
}

// serveCases is the incremental recoloring suite: a fresh server replays
// the churn history batch by batch. Besides the batch latency median it
// reports the highest percentile that still has ten samples above it, so
// the tail figure is never the maximum of a short run. The replay must
// reproduce the reference server's coloring, and the final instance is
// also solved from scratch for the cost comparison.
func serveCases(quick bool) []benchCase {
	var cases []benchCase
	for _, c := range churnWorkloads(quick) {
		cases = append(cases, benchCase{
			name:   fmt.Sprintf("churn/delta=%d", c.delta),
			params: c.params(),
			build: func() (benchOp, error) {
				script, ref, err := c.script()
				if err != nil {
					return nil, err
				}
				o, lists, _ := ref.Instance()
				init := make([]int, o.N())
				for v := range init {
					init[v] = v
				}
				in := oldc.Input{O: o, SpaceSize: 4096, Lists: lists, InitColors: init, M: o.N()}
				phi, srep, err := oldc.SolveRobust(sim.NewEngine(o.Graph()), in, cover.Params{})
				scratchRounds, scratchValid := srep.Stats.Rounds, err == nil && coloring.CheckOLDC(o, lists, phi) == nil
				g := graph.RandomRegular(c.n, c.delta, 1)
				tail := 100 * (c.batches - 10) / c.batches
				return func() (result, error) {
					s, err := serve.New(g, serveConfig)
					if err != nil {
						return result{}, err
					}
					var mutations, recolored, sweepRecolored, repairRounds, maxResidual int
					lat := make([]time.Duration, 0, len(script))
					var total time.Duration
					for b, batch := range script {
						start := time.Now()
						br, err := s.Apply(batch)
						el := time.Since(start)
						if err != nil {
							return result{}, fmt.Errorf("batch %d: %w", b, err)
						}
						total += el
						lat = append(lat, el)
						mutations += br.Mutations
						recolored += br.Recolored
						sweepRecolored += br.SweepRecolored
						repairRounds += br.Rounds
						maxResidual = max(maxResidual, len(br.Residual))
					}
					sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
					fo, flists, _ := s.Instance()
					finalBad := len(coloring.OLDCViolators(fo, flists, s.Snapshot()))
					return result{
						counts: map[string]any{
							"final_n": s.N(), "mutations": mutations, "recolored": recolored, "sweep_recolored": sweepRecolored,
							"repair_rounds": repairRounds, "max_residual": maxResidual, "final_bad": finalBad,
							"scratch_rounds": scratchRounds, "scratch_valid": scratchValid,
							"latency_samples": len(lat), "tail_percentile": tail,
							"replay_deterministic": reflect.DeepEqual(s.Snapshot(), ref.Snapshot()),
						},
						timings: map[string]time.Duration{
							"apply_total":                  total,
							"batch_p50":                    percentile(lat, 50),
							fmt.Sprintf("batch_p%d", tail): percentile(lat, tail),
						},
						valid: finalBad == 0,
					}, nil
				}, nil
			},
		})
	}
	return cases
}

// recoverCases is the crash-recovery suite. Kill rows run DegreeLuby under
// every chaos.BuiltinRecovery plan with a checkpoint every round and a
// restart supervisor; the verdict is that the resumed coloring equals an
// uninterrupted run's under the same wire faults (under message loss
// neither run is a proper coloring, which the proper count records). WAL
// rows write the churn history
// through a durable store with one snapshot mid-history, abandon it
// without closing it, and time a fresh open (snapshot load plus WAL
// replay), which must restore the reference server's coloring.
func recoverCases(quick bool) []benchCase {
	killGraphs := []struct{ delta, n int }{{8, 256}, {64, 512}}
	if quick {
		killGraphs = []struct{ delta, n int }{{8, 64}, {16, 128}}
	}
	const lubySeed = 11
	var cases []benchCase
	for _, kg := range killGraphs {
		g := graph.RandomRegular(kg.n, kg.delta, 1)
		for _, np := range chaos.BuiltinRecovery(g, 42) {
			cases = append(cases, benchCase{
				name:   fmt.Sprintf("kill/%s/delta=%d", np.Name, kg.delta),
				params: map[string]any{"plan": np.Name, "spec": np.Spec, "delta": kg.delta, "n": kg.n, "seed": lubySeed},
				build: func() (benchOp, error) {
					ref := baseline.NewDegreeLuby(g, lubySeed)
					if _, err := sim.NewEngineWith(g, sim.Options{Faults: np.Plan.Model}).Run(ref, baseline.DegreeLubyMaxRounds(g.N())); err != nil {
						return nil, fmt.Errorf("uninterrupted reference: %w", err)
					}
					return func() (result, error) { return killOp(g, np, lubySeed, ref.Colors()) }, nil
				},
			})
		}
	}
	for _, c := range churnWorkloads(quick) {
		cases = append(cases, benchCase{
			name:   fmt.Sprintf("wal/delta=%d", c.delta),
			params: c.params(),
			build: func() (benchOp, error) {
				script, ref, err := c.script()
				if err != nil {
					return nil, err
				}
				return func() (result, error) { return walOp(c, script, ref.Snapshot()) }, nil
			},
		})
	}
	return cases
}

// killOp is one supervised run of a kill plan from an empty checkpoint
// directory. Shard-kill plans run on 4 workers; the coloring is
// worker-independent either way.
func killOp(g *graph.Graph, np chaos.NamedPlan, seed int64, want coloring.Assignment) (result, error) {
	dir, err := os.MkdirTemp("", "ldc-bench-kill")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.ckpt")
	workers := 0
	for _, k := range np.Plan.Kills {
		if k.Shard >= 0 {
			workers = 4
		}
	}
	ckp := &sim.Checkpointer{Path: path, Every: 1}
	killHook := np.Plan.KillHook()
	var (
		phi      coloring.Assignment
		stats    sim.Stats
		restarts int
		restore  time.Duration
	)
	start := time.Now()
	err = chaos.Supervise(chaos.SuperviseOptions{
		MaxRestarts: 2 * len(np.Plan.Kills),
		Sleep:       func(time.Duration) {}, // timings exclude backoff
	}, func(attempt int) error {
		alg := baseline.NewDegreeLuby(g, seed)
		eng := sim.NewEngineWith(g, sim.Options{Workers: workers, Faults: np.Plan.Model})
		eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), killHook))
		startRound, prior := 0, sim.Stats{}
		if attempt > 0 {
			t0 := time.Now()
			ck, err := sim.ReadCheckpoint(path)
			if err != nil {
				return err
			}
			if err := ck.Restore(alg); err != nil {
				return err
			}
			restore += time.Since(t0)
			restarts = attempt
			startRound, prior = ck.Round, ck.Stats
		}
		s, err := eng.RunFrom(alg, startRound, baseline.DegreeLubyMaxRounds(g.N()), prior)
		if err != nil {
			return err
		}
		stats, phi = s, alg.Colors()
		return nil
	})
	total := time.Since(start)
	if err != nil {
		return result{}, err
	}
	img, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	identical := reflect.DeepEqual(phi, want)
	return result{
		counts: map[string]any{
			"rounds": stats.Rounds, "restarts": restarts, "ckpt_bytes": len(img), "identical_to_uninterrupted": identical,
			"proper": coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil,
		},
		timings: map[string]time.Duration{"total": total, "restore": restore},
		valid:   identical,
	}, nil
}

// walOp writes the script through a durable store in a fresh directory,
// abandons the store as a crash would, and times reopening it.
func walOp(c churn, script [][]serve.Mutation, want coloring.Assignment) (result, error) {
	dir, err := os.MkdirTemp("", "ldc-bench-wal")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	opts := serve.DurableOptions{SnapshotEvery: c.batches/2 + 1, SyncEvery: 8}
	d, err := serve.OpenDurable(graph.RandomRegular(c.n, c.delta, 1), serveConfig, dir, opts)
	if err != nil {
		return result{}, err
	}
	// Closing only releases the descriptor once the reopen is measured:
	// the reopen sees the store as the crash below leaves it.
	defer d.Close()
	mutations := 0
	for b, batch := range script {
		if _, err := d.Apply(batch); err != nil {
			return result{}, fmt.Errorf("batch %d: %w", b, err)
		}
		mutations += len(batch)
	}
	if err := d.Sync(); err != nil {
		return result{}, err
	}
	gen := d.Generation()
	st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", gen)))
	if err != nil {
		return result{}, err
	}
	img := d.Server().EncodeState()
	t0 := time.Now()
	if _, err := serve.FromState(img, serveConfig); err != nil {
		return result{}, fmt.Errorf("snapshot decode: %w", err)
	}
	snapRestore := time.Since(t0)

	t0 = time.Now()
	d2, err := serve.OpenDurable(nil, serveConfig, dir, opts)
	if err != nil {
		return result{}, fmt.Errorf("reopen: %w", err)
	}
	defer d2.Close()
	replay := time.Since(t0)
	if err := d2.Degraded(); err != nil {
		return result{}, fmt.Errorf("reopen degraded: %w", err)
	}
	restored := reflect.DeepEqual(d2.Server().Snapshot(), want)
	return result{
		counts: map[string]any{
			"mutations": mutations, "wal_bytes": st.Size(), "snapshot_bytes": len(img), "snapshot_every": opts.SnapshotEvery,
			"batches_after_snapshot": c.batches - opts.SnapshotEvery*gen, "restored_identical": restored,
		},
		timings: map[string]time.Duration{"replay": replay, "snapshot_restore": snapRestore},
		valid:   restored,
	}, nil
}
