package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/coloring"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// solveCase is one of the three batch workloads. Its instance is set up a
// few times (setup_s is their median) and then solved from scratch back to
// back until the time budget is spent.
type solveCase struct {
	name string
	n    int // nodes per graph
	// graphs is how many graphs one op colors, one after another, each
	// generated from its own sub-seed; more than one averages the op over
	// inputs whose cost varies.
	graphs int
	edges  func(seed int64) [][2]int32
	// setup builds the instance from the loaded graph; it is timed
	// together with the load.
	setup func(g *graph.Graph, seed int64, c *config, t *setupTimes) solver
}

// solver is a set-up instance of a solve workload.
type solver interface {
	// solve is the untraced op: one call into the program's entry point.
	solve() (coloring.Assignment, sim.Stats, error)
	// solveTraced is the same op with the recorder installed.
	solveTraced(rec *recorder) (coloring.Assignment, sim.Stats, error)
	// check re-validates an output independently of the solver's own check.
	check(phi coloring.Assignment) error
}

// setupTimes splits one set-up into the layers it calls.
type setupTimes struct {
	total, graph, lists, store float64 // seconds
}

func oldcD128(n, d int) solveCase {
	return solveCase{
		name:   "oldc-d128",
		n:      n,
		graphs: 1,
		edges:  func(seed int64) [][2]int32 { return regularEdges(n, d, seed) },
		setup: func(g *graph.Graph, seed int64, c *config, t *setupTimes) solver {
			o := graph.OrientByID(g)
			t0 := time.Now()
			inst := coloring.SquareSumOriented(o, 1<<15, 6.0, 3, seed)
			t.lists = time.Since(t0).Seconds()
			init := make([]int, g.N())
			for v := range init {
				init[v] = v
			}
			in := oldc.Input{O: o, SpaceSize: 1 << 15, Lists: inst.Lists, InitColors: init, M: g.N()}
			return &oldcSolver{in: in, workers: c.workers, eng: sim.NewEngineWith(g, sim.Options{Workers: c.workers})}
		},
	}
}

type oldcSolver struct {
	in      oldc.Input
	workers int
	eng     *sim.Engine
}

func (s *oldcSolver) solve() (coloring.Assignment, sim.Stats, error) {
	return oldc.Solve(s.eng, s.in, oldc.Options{})
}

// solveTraced runs the solve through the PrepareSolve → RunFrom → Finish
// seam (the one ldc-run's supervisor uses), which emits the same events
// and yields the same coloring as oldc.Solve but hands the benchmark the
// two-phase algorithm to wrap.
func (s *oldcSolver) solveTraced(rec *recorder) (coloring.Assignment, sim.Stats, error) {
	eng := sim.NewEngineWith(s.in.O.Graph(), sim.Options{Workers: s.workers, Tracer: rec, Metrics: rec.reg})
	rec.begin("oldc.prepare")
	prep, err := oldc.PrepareSolve(eng, s.in, oldc.Options{})
	rec.end()
	if err != nil {
		return nil, sim.Stats{}, err
	}
	a := rec.install(prep.Algorithm(), s.in.O.N())
	rec.begin("oldc.run")
	st, err := eng.RunFrom(a, 0, prep.MaxRounds(), prep.PrepStats())
	rec.end()
	rec.uninstall()
	out, in := a.callbackNs()
	rec.cpu("oldc", out, in)
	if err != nil {
		return nil, st, err
	}
	rec.begin("oldc.finish")
	defer rec.end()
	return prep.Finish(st)
}

func (s *oldcSolver) check(phi coloring.Assignment) error {
	return coloring.CheckOLDC(s.in.O, s.in.Lists, phi)
}

func delta1GNP(n, graphs int, avgDeg float64) solveCase {
	return solveCase{
		name:   "delta1-gnp",
		n:      n,
		graphs: graphs,
		edges:  func(seed int64) [][2]int32 { return gnpEdges(n, avgDeg, seed) },
		setup:  func(g *graph.Graph, seed int64, c *config, t *setupTimes) solver { return &delta1Solver{g: g} },
	}
}

// delta1Solver runs congest.DeltaPlusOne, the default ldc-run algorithm.
// The pipeline builds its own engines and lists, so set-up is the load
// alone and its engines run with GOMAXPROCS workers.
type delta1Solver struct{ g *graph.Graph }

func (s *delta1Solver) solve() (coloring.Assignment, sim.Stats, error) {
	res, err := congest.DeltaPlusOne(s.g, congest.Config{})
	return res.Phi, res.Stats, err
}

func (s *delta1Solver) solveTraced(rec *recorder) (coloring.Assignment, sim.Stats, error) {
	res, err := congest.DeltaPlusOne(s.g, congest.Config{Tracer: rec, Metrics: rec.reg})
	return res.Phi, res.Stats, err
}

func (s *delta1Solver) check(phi coloring.Assignment) error {
	return coloring.CheckProper(s.g, phi, s.g.MaxDegree()+1)
}

func routeLuby(n int, avgDeg float64) solveCase {
	return solveCase{
		name:   "route-luby",
		n:      n,
		graphs: 1,
		edges:  func(seed int64) [][2]int32 { return gnpEdges(n, avgDeg, seed) },
		setup: func(g *graph.Graph, seed int64, c *config, t *setupTimes) solver {
			return &lubySolver{g: g, seed: seed, workers: c.workers, eng: sim.NewEngineWith(g, sim.Options{Workers: c.workers})}
		},
	}
}

// lubySolver runs baseline.DegreeLuby on the default sim engine.
type lubySolver struct {
	g       *graph.Graph
	seed    int64
	workers int
	eng     *sim.Engine
}

func (s *lubySolver) solve() (coloring.Assignment, sim.Stats, error) {
	return baseline.DegreeLuby(s.eng, s.g, s.seed)
}

func (s *lubySolver) solveTraced(rec *recorder) (coloring.Assignment, sim.Stats, error) {
	eng := sim.NewEngineWith(s.g, sim.Options{Workers: s.workers, Tracer: rec, Metrics: rec.reg})
	r := &timedRunner{eng: eng, rec: rec}
	phi, st, err := baseline.DegreeLuby(r, s.g, s.seed)
	rec.cpu("luby", r.cpuNs[0], r.cpuNs[1])
	return phi, st, err
}

func (s *lubySolver) check(phi coloring.Assignment) error {
	return coloring.CheckProper(s.g, phi, s.g.MaxDegree()+1)
}

// runSolve measures one solve workload: set-ups, then untraced ops for the
// whole budget, or, when tracing, untraced ops for half of it and traced
// ops for the rest.
func runSolve(sc solveCase, c *config) (*result, error) {
	res := newResult(sc.name, c)
	texts := make([][]byte, sc.graphs)
	for i := range texts {
		texts[i] = edgeListText(sc.edges(subSeed(c.seed, i, sc.graphs)))
	}
	var s solver
	for rep := 0; rep < setupReps; rep++ {
		s = nil // let the previous set-up's instances be collected
		runtime.GC()
		var t setupTimes
		t0 := time.Now()
		var parts multiSolver
		for i, text := range texts {
			t1 := time.Now()
			g, err := graph.LoadEdgeList(bytes.NewReader(text))
			if err != nil {
				return nil, fmt.Errorf("load edge list: %w", err)
			}
			t.graph += time.Since(t1).Seconds()
			if g.N() != sc.n {
				return nil, fmt.Errorf("generated graph has %d nodes, want %d", g.N(), sc.n)
			}
			parts = append(parts, part{sc.setup(g, subSeed(c.seed, i, sc.graphs), c, &t), sc.n})
		}
		s = parts
		if len(parts) == 1 {
			s = parts[0].solver
		}
		t.total = time.Since(t0).Seconds()
		res.setups = append(res.setups, t)
		res.heapMB = append(res.heapMB, liveHeapMB())
	}

	deadline := time.Now().Add(c.budget)
	if c.trace {
		deadline = time.Now().Add(c.budget / 2)
	}
	for len(res.ops) < minSolveOps || time.Now().Before(deadline) {
		res.record(solveOp(s, sc.n*sc.graphs, nil))
	}
	if !c.trace {
		return res, nil
	}
	rec := newRecorder()
	res.rec = rec
	deadline = time.Now().Add(c.budget / 2)
	for len(res.traced) < minSolveOps || time.Now().Before(deadline) {
		res.recordTraced(solveOp(s, sc.n*sc.graphs, rec))
	}
	snap := rec.reg.Snapshot()
	res.counters, res.gauges = snap.Counters, snap.Gauges
	return res, nil
}

// solveOp times one solve and checks its output outside the timed region.
// A panic, an error or a rejected output fails the op.
func solveOp(s solver, n int, rec *recorder) (op opResult) {
	op.items = n
	runtime.GC() // every op starts from the same heap state
	before := allocBytes()
	cpu0 := cpuSeconds()
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				op.err = fmt.Errorf("panic: %v", p)
			}
		}()
		if rec != nil {
			rec.beginOp("solve")
			defer rec.endOp()
			op.phi, op.stats, op.err = s.solveTraced(rec)
		} else {
			op.phi, op.stats, op.err = s.solve()
		}
	}()
	op.seconds = time.Since(start).Seconds()
	op.cpuSeconds = cpuSeconds() - cpu0
	op.allocBytes = allocBytes() - before
	if op.err == nil {
		if err := s.check(op.phi); err != nil {
			op.err, op.rejected = err, true
		}
	}
	return op
}

// subSeed is the seed of graph i of an op that colors k graphs; with one
// graph it is the run's seed.
func subSeed(seed int64, i, k int) int64 { return seed*int64(k) + int64(i) }

// part is one graph of a multi-graph op.
type part struct {
	solver
	n int
}

// multiSolver colors its graphs one after another; the op's coloring is
// theirs concatenated and its counts are their sums.
type multiSolver []part

func (m multiSolver) solve() (coloring.Assignment, sim.Stats, error) {
	return m.each(func(s solver) (coloring.Assignment, sim.Stats, error) { return s.solve() })
}

func (m multiSolver) solveTraced(rec *recorder) (coloring.Assignment, sim.Stats, error) {
	return m.each(func(s solver) (coloring.Assignment, sim.Stats, error) { return s.solveTraced(rec) })
}

func (m multiSolver) each(f func(solver) (coloring.Assignment, sim.Stats, error)) (coloring.Assignment, sim.Stats, error) {
	var phi coloring.Assignment
	var total sim.Stats
	for _, p := range m {
		x, st, err := f(p.solver)
		total = total.Add(st)
		if err != nil {
			return nil, total, err
		}
		phi = append(phi, x...)
	}
	return phi, total, nil
}

func (m multiSolver) check(phi coloring.Assignment) error {
	for _, p := range m {
		if err := p.check(phi[:p.n]); err != nil {
			return err
		}
		phi = phi[p.n:]
	}
	return nil
}
