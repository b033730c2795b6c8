package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveCase is the write-path workload: a closed loop with one client
// applying degree-preserving mutation batches to a durable store. Each
// episode opens a fresh store and applies the same fixed batch sequence,
// so every episode ends in the same coloring and the run's counts do not
// depend on how many episodes fit in the budget.
type serveCase struct {
	name    string
	n, deg  int
	batches int // per episode
}

// Durable options of ldc-serve -data at their defaults.
var durableOpts = serve.DurableOptions{SnapshotEvery: 64, SyncEvery: 1}

// episode is what one store lifetime leaves besides its batches.
type episode struct {
	setup   setupTimes
	heapMB  float64
	bits    int64 // on all wires, initial solve included
	maxBits int
	phi     coloring.Assignment
}

// runServe measures serve-churn: untraced episodes for the budget, or, when
// tracing, untraced episodes for half of it and traced ones for the rest.
// At least one episode runs in each half.
func runServe(sc serveCase, c *config) (*result, error) {
	res := newResult(sc.name, c)
	text := edgeListText(regularEdges(sc.n, sc.deg, c.seed))
	half := c.budget
	if c.trace {
		half /= 2
	}
	deadline := time.Now().Add(half)
	for len(res.setups) == 0 || time.Now().Before(deadline) {
		if err := runEpisode(sc, c, text, res, nil); err != nil {
			return nil, err
		}
	}
	if !c.trace {
		return res, nil
	}
	res.rec = newRecorder()
	deadline = time.Now().Add(half)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := runEpisode(sc, c, text, res, res.rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runEpisode opens a store on a fresh copy of the graph (serve.New keeps
// the caller's graph and mutates it), applies the batch sequence, and
// checks the final coloring against the whole graph.
func runEpisode(sc serveCase, c *config, text []byte, res *result, rec *recorder) error {
	runtime.GC()
	reg := obs.NewRegistry()
	if rec != nil {
		reg = rec.reg
	}
	bits0 := counter(reg, obs.MetricBits)
	var ep episode
	t0 := time.Now()
	g, err := graph.LoadEdgeList(bytes.NewReader(text))
	if err != nil {
		return fmt.Errorf("load edge list: %w", err)
	}
	ep.setup.graph = time.Since(t0).Seconds()
	dir, err := os.MkdirTemp(c.dataRoot, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{Seed: c.seed, Metrics: reg}
	if rec != nil {
		cfg.Tracer = rec
	}
	t1 := time.Now()
	d, err := serve.OpenDurable(g, cfg, dir, durableOpts)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer d.Close()
	ep.setup.store = time.Since(t1).Seconds()
	ep.setup.total = time.Since(t0).Seconds()
	ep.heapMB = liveHeapMB()

	start := reg.Snapshot()
	rng := rand.New(rand.NewSource(c.seed))
	var ops []opResult
	for b := 0; b < sc.batches; b++ {
		batch := nextBatch(rng, d.Server())
		ops = append(ops, applyOp(d, dir, reg, batch, rec))
	}
	// Repairs re-solve regions of one or two nodes, which rarely share an
	// edge, so wire counts cover the store's whole life: the initial solve
	// in OpenDurable and every repair.
	end := reg.Snapshot()
	ep.bits = end.Counters[obs.MetricBits] - bits0
	ep.maxBits = int(end.Gauges[obs.MetricMaxMessageBits])
	ep.phi = d.Server().Snapshot()
	o, lists, _ := d.Server().Instance()
	if viol := coloring.OLDCViolators(o, lists, ep.phi); len(viol) > 0 {
		last := &ops[len(ops)-1]
		if last.err == nil {
			last.err = fmt.Errorf("final coloring has %d violators (first %d)", len(viol), viol[0])
		}
		last.rejected = true
	}
	res.addEpisode(ep, ops, rec != nil, start, end)
	return nil
}

// applyOp times one Durable.Apply. Registry reads happen outside the timed
// region; in a traced episode they split the batch into recolor time (the
// server's own ldc_serve_recolor_latency_ms) and persistence.
func applyOp(d *serve.Durable, dir string, reg *obs.Registry, batch []serve.Mutation, rec *recorder) (op opResult) {
	var before obs.Snapshot
	if rec != nil {
		before = reg.Snapshot()
	}
	alloc := allocBytes()
	cpu0 := cpuSeconds()
	start := time.Now()
	var rep serve.BatchReport
	func() {
		defer func() {
			if p := recover(); p != nil {
				op.err = fmt.Errorf("panic: %v", p)
			}
		}()
		if rec != nil {
			op.span = rec.beginOp("batch")
			defer rec.endOp()
		}
		rep, op.err = d.Apply(batch)
	}()
	op.seconds = time.Since(start).Seconds()
	op.cpuSeconds = cpuSeconds() - cpu0
	op.allocBytes = allocBytes() - alloc
	op.items = rep.Mutations
	op.stats = sim.Stats{Rounds: rep.Rounds}
	op.batch = batchReport{recolored: rep.Recolored, repairs: rep.Repairs, dirty: rep.Dirty}
	if rec == nil {
		return op
	}
	after := reg.Snapshot()
	b := &op.batch
	b.recolorMs = after.Histograms[obs.MetricServeBatchMS].Sum - before.Histograms[obs.MetricServeBatchMS].Sum
	b.fsyncs = after.Counters[obs.MetricWALFsyncs] - before.Counters[obs.MetricWALFsyncs]
	b.walBytes = after.Counters[obs.MetricWALBytes] - before.Counters[obs.MetricWALBytes]
	if after.Counters[obs.MetricServeSnapshots] > before.Counters[obs.MetricServeSnapshots] {
		b.snapshotBytes = newestSnapshotBytes(dir)
	}
	return op
}

// newestSnapshotBytes is the size of the highest-generation snap-* image
// in the store directory (the layout serve.Durable documents).
func newestSnapshotBytes(dir string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	if len(names) == 0 {
		return 0
	}
	st, err := os.Stat(names[len(names)-1]) // Glob sorts; names are zero-padded
	if err != nil {
		return 0
	}
	return st.Size()
}

// nextBatch reads the live graph and draws the next batch: one time in
// eight a node replacement (detach a node, add a fresh one wired to the old
// node's neighbours), otherwise one or two double-edge swaps on disjoint
// node sets. Both keep every degree, so n, m and the degree sequence of
// the live nodes stay put, and because the store orients edges toward the
// smaller id no out-degree can exceed the degree.
func nextBatch(rng *rand.Rand, srv *serve.Server) []serve.Mutation {
	o, _, _ := srv.Instance()
	g := o.Graph()
	if rng.Intn(8) == 0 {
		u := randomEdge(rng, g)[0]
		batch := []serve.Mutation{{Op: serve.OpRemoveNode, U: u}, {Op: serve.OpAddNode}}
		for _, w := range g.Neighbors(u) {
			batch = append(batch, serve.Mutation{Op: serve.OpAddEdge, U: g.N(), V: int(w)})
		}
		return batch
	}
	var batch []serve.Mutation
	used := map[int]bool{}
	for swaps := 1 + rng.Intn(2); swaps > 0; {
		e, f := randomEdge(rng, g), randomEdge(rng, g)
		a, b, c, d := e[0], e[1], f[0], f[1]
		if a == c || a == d || b == c || b == d || used[a] || used[b] || used[c] || used[d] ||
			g.HasEdge(a, d) || g.HasEdge(c, b) {
			continue
		}
		used[a], used[b], used[c], used[d] = true, true, true, true
		batch = append(batch,
			serve.Mutation{Op: serve.OpRemoveEdge, U: a, V: b},
			serve.Mutation{Op: serve.OpRemoveEdge, U: c, V: d},
			serve.Mutation{Op: serve.OpAddEdge, U: a, V: d},
			serve.Mutation{Op: serve.OpAddEdge, U: c, V: b})
		swaps--
	}
	return batch
}

// randomEdge draws a node with at least one neighbour, then one of its
// neighbours: uniform over edges while every live node has the same degree.
func randomEdge(rng *rand.Rand, g *graph.Graph) [2]int {
	for {
		u := rng.Intn(g.N())
		if nb := g.Neighbors(u); len(nb) > 0 {
			return [2]int{u, int(nb[rng.Intn(len(nb))])}
		}
	}
}

// counter reads a registry counter (0 when never registered).
func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }
