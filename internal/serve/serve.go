// Package serve maintains a valid oriented list defective coloring over a
// graph that changes: clients submit mutation batches (edge and node
// additions and removals) and query colors, and the engine recolors only
// the region the batch disturbed by reusing the detect-and-repair pipeline
// (coloring.OLDCViolatorsIn → oldc.RepairRegion → scoped greedy sweep)
// instead of re-solving the whole instance.
//
// The engine is deterministic for a fixed mutation sequence: replaying the
// same batches against a server built from the same Config produces
// bit-identical colorings after every batch (the determinism contract is
// spelled out in docs/SERVICE.md). All methods are safe for concurrent
// use; batches serialize in arrival order.
package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// Op names a mutation kind. The string values double as the JSON wire
// format of the batch API.
type Op string

// The supported mutation kinds.
const (
	// OpAddEdge inserts the undirected edge {U,V}, oriented toward the
	// smaller id (the engine maintains the OrientByID policy).
	OpAddEdge Op = "add_edge"
	// OpRemoveEdge removes the undirected edge {U,V}.
	OpRemoveEdge Op = "remove_edge"
	// OpAddNode appends a fresh isolated node (U and V are ignored); its id
	// is the current node count. Ids are dense and never recycled.
	OpAddNode Op = "add_node"
	// OpRemoveNode detaches node U: all incident edges are removed and the
	// node stays as an isolated vertex (ids are never recycled).
	OpRemoveNode Op = "remove_node"
)

// Mutation is one graph change in a batch.
type Mutation struct {
	Op Op  `json:"op"`
	U  int `json:"u"`
	V  int `json:"v,omitempty"`
}

// ErrUnknownOp is the sentinel for a mutation whose Op is not one of the
// four supported kinds; Apply wraps it with the offending value.
var ErrUnknownOp = fmt.Errorf("serve: unknown mutation op")

// Config parameterizes a Server. The zero value is usable: every field
// has a documented default.
type Config struct {
	// Kappa is the square-sum slack κ of the generated lists (≤0 = 5.0).
	Kappa float64
	// MinDefect is the per-color defect floor (<0 = 0; the default of 1 is
	// applied when the field is zero so stray collisions are absorbed).
	MinDefect int
	// MaxDefect is the per-color defect cap (≤0 = 2).
	MaxDefect int
	// SpaceSize is the color space size (≤0 = 4096).
	SpaceSize int
	// Seed drives list generation — both the initial
	// coloring.SquareSumOrientedRange lists and the deterministic per-node
	// top-ups that keep the square-sum condition alive as out-degrees grow.
	Seed int64
	// MaxRepairs bounds the RepairRegion iterations per batch (≤0 = 3).
	MaxRepairs int
	// MaxSweeps bounds the scoped greedy sweep passes per batch (≤0 = 3).
	MaxSweeps int
	// VerifyEveryBatch runs a full-graph CheckOLDC after every batch and
	// reports the result in BatchReport.Verified; scoped detection makes
	// this redundant (the churn tests pin that), so it defaults off.
	VerifyEveryBatch bool
	// Tracer observes the solves (nil = untraced).
	Tracer obs.Tracer
	// Metrics receives the serve metrics catalog (nil = none).
	Metrics *obs.Registry
	// Faults, when non-nil, injects a structured fault schedule (see
	// sim.FaultModel and internal/chaos) into every engine the server
	// runs: the initial solve and each repair re-solve. The model is a
	// pure function of (round, from, to), so a replayed mutation sequence
	// still recolors bit-identically — the chaos churn tests depend on it.
	// Runtime-only, like Tracer and Metrics: not part of the durable
	// config fingerprint.
	Faults sim.FaultModel
}

func (c Config) withDefaults() Config {
	if c.Kappa <= 0 {
		c.Kappa = 5.0
	}
	if c.MinDefect == 0 {
		c.MinDefect = 1
	} else if c.MinDefect < 0 {
		c.MinDefect = 0
	}
	if c.MaxDefect <= 0 {
		c.MaxDefect = 2
	}
	if c.MaxDefect < c.MinDefect {
		c.MaxDefect = c.MinDefect
	}
	if c.SpaceSize <= 0 {
		c.SpaceSize = 4096
	}
	if c.MaxRepairs <= 0 {
		c.MaxRepairs = 3
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 3
	}
	return c
}

// BatchReport summarizes one Apply call.
type BatchReport struct {
	// Batch is the 1-based sequence number of this batch.
	Batch int `json:"batch"`
	// Mutations is the number of mutations applied.
	Mutations int `json:"mutations"`
	// Dirty is the size of the candidate set entering violator detection
	// (mutation endpoints plus any residual carried from earlier batches).
	Dirty int `json:"dirty"`
	// InitialBad is the number of violators detected in the dirty set
	// before any repair ran.
	InitialBad int `json:"initial_bad"`
	// Repairs is the number of RepairRegion iterations executed.
	Repairs int `json:"repairs"`
	// Recolored is the number of nodes whose color changed this batch.
	Recolored int `json:"recolored"`
	// SweepRecolored is the subset of Recolored changed by the greedy
	// sweep fallback rather than a distributed repair.
	SweepRecolored int `json:"sweep_recolored"`
	// Residual lists the nodes still violating after the repair budget;
	// they are carried into the next batch's dirty set.
	Residual []int `json:"residual,omitempty"`
	// Rounds is the number of simulator rounds the repairs spent.
	Rounds int `json:"rounds"`
	// Verified reports the full-graph CheckOLDC outcome when
	// Config.VerifyEveryBatch is set (always true otherwise — scoped
	// detection found nothing to carry).
	Verified bool `json:"verified"`
}

// Server maintains the coloring. Create one with New; the zero value is
// not usable.
type Server struct {
	mu   sync.Mutex
	cfg  Config
	o    *graph.Oriented
	list []coloring.NodeList
	init []int
	phi  coloring.Assignment

	residual []int // violators carried across batches
	topups   []int // per-node list-extension generation (seeds the top-up RNG)
	batches  int
	stats    sim.Stats
	scratch  *oldc.RepairScratch
	dirty    []int // reused candidate buffer
	prev     []int // reused pre-repair color snapshot
}

// New builds a server over a copy of g (Apply mutates the server's graph,
// never the caller's): the graph is oriented by id, every node gets
// square-sum lists from cfg (Seed pins them), the initial colors are the
// node ids (a proper coloring that stays proper under any mutation), and
// the instance is solved once from scratch. A *oldc.ErrResidual from the
// initial solve is not fatal — the residual is carried into the first
// batch — but any other error is returned.
func New(g *graph.Graph, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	g, err := graph.Materialize(graph.Stream(g))
	if err != nil {
		return nil, fmt.Errorf("serve: copy graph: %w", err)
	}
	o := graph.OrientByID(g)
	inst := coloring.SquareSumOrientedRange(o, cfg.SpaceSize, cfg.Kappa, cfg.MinDefect, cfg.MaxDefect, cfg.Seed)
	s := &Server{
		cfg:     cfg,
		o:       o,
		list:    inst.Lists,
		init:    make([]int, g.N()),
		topups:  make([]int, g.N()),
		scratch: &oldc.RepairScratch{},
	}
	for v := range s.init {
		s.init[v] = v
	}
	eng := sim.NewEngineWith(g, sim.Options{Tracer: cfg.Tracer, Metrics: cfg.Metrics, Faults: cfg.Faults})
	phi, rep, err := oldc.SolveRobust(eng, s.input(), oldc.RobustOptions{
		MaxRepairs: cfg.MaxRepairs, MaxSweeps: cfg.MaxSweeps,
	})
	s.stats = rep.Stats
	if err != nil {
		res, ok := err.(*oldc.ErrResidual)
		if !ok {
			return nil, fmt.Errorf("serve: initial solve: %w", err)
		}
		s.residual = append(s.residual, res.Violators...)
	}
	s.phi = phi
	return s, nil
}

// input assembles the current OLDC instance. M is the node count: the
// init coloring is the identity, which is proper with ids < N.
func (s *Server) input() oldc.Input {
	return oldc.Input{O: s.o, SpaceSize: s.cfg.SpaceSize, Lists: s.list, InitColors: s.init, M: s.o.N()}
}

// N returns the current node count.
func (s *Server) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.o.N()
}

// Batches returns how many batches have been applied.
func (s *Server) Batches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// Color returns node v's current color, counting the query in the serve
// metrics. It returns an error when v is out of range.
func (s *Server) Color(v int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(obs.MetricServeQueries).Add(1)
	}
	if v < 0 || v >= len(s.phi) {
		return 0, fmt.Errorf("%w: vertex %d outside [0,%d)", graph.ErrVertexRange, v, len(s.phi))
	}
	return s.phi[v], nil
}

// Snapshot returns a copy of the full coloring.
func (s *Server) Snapshot() coloring.Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(coloring.Assignment(nil), s.phi...)
}

// Instance returns the live instance pieces — orientation, lists, and the
// current residual set — for validation and from-scratch comparison. The
// returned orientation and lists are the server's own: callers must not
// mutate them and must not hold them across a concurrent Apply.
func (s *Server) Instance() (*graph.Oriented, []coloring.NodeList, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.o, s.list, append([]int(nil), s.residual...)
}

// Apply applies one mutation batch and restores coloring validity on the
// disturbed region. Mutations apply in order and the call fails fast: on
// the first invalid mutation (graph.ErrSelfLoop, graph.ErrVertexRange,
// graph.ErrEdgeExists, graph.ErrNoSuchEdge, or ErrUnknownOp, all wrapped)
// the error is returned with the earlier mutations of the batch already
// applied and repaired — each mutation is individually atomic, so the
// instance is never left inconsistent.
//
// Recoloring is scoped: the dirty set (mutation endpoints, new nodes, and
// any residual carried from earlier batches) is checked with
// coloring.OLDCViolatorsIn, the violators are re-solved with
// oldc.RepairRegion, and the recheck set after each iteration is the
// region plus the in-neighbors of every node that changed color. Nodes the
// repair budget cannot fix fall to a scoped greedy sweep and, failing
// that, into BatchReport.Residual for the next batch.
func (s *Server) Apply(batch []Mutation) (BatchReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	s.batches++
	rep := BatchReport{Batch: s.batches, Verified: true}

	s.dirty = append(s.dirty[:0], s.residual...)
	s.residual = s.residual[:0]
	var err error
	for _, m := range batch {
		if err = s.applyOne(m); err != nil {
			break
		}
		rep.Mutations++
	}
	s.topUpLists()
	rep.Dirty = len(s.dirty)
	s.repair(&rep)
	if s.cfg.VerifyEveryBatch {
		rep.Verified = coloring.CheckOLDC(s.o, s.list, s.phi) == nil
	}
	s.observe(&rep, time.Since(start))
	return rep, err
}

// applyOne applies a single mutation and records its dirty endpoints.
func (s *Server) applyOne(m Mutation) error {
	switch m.Op {
	case OpAddEdge:
		from, to := m.U, m.V
		if from < to {
			from, to = to, from
		}
		if err := s.o.AddEdge(from, to); err != nil {
			return err
		}
		s.dirty = append(s.dirty, m.U, m.V)
	case OpRemoveEdge:
		if err := s.o.RemoveEdge(m.U, m.V); err != nil {
			return err
		}
		s.dirty = append(s.dirty, m.U, m.V)
	case OpAddNode:
		id := s.o.AddNode()
		s.list = append(s.list, coloring.NodeList{})
		s.init = append(s.init, id)
		s.topups = append(s.topups, 0)
		s.phi = append(s.phi, coloring.Unset)
		s.dirty = append(s.dirty, id)
	case OpRemoveNode:
		if _, err := s.o.DetachNode(m.U); err != nil {
			return err
		}
		s.dirty = append(s.dirty, m.U)
	default:
		return fmt.Errorf("%w: %q", ErrUnknownOp, m.Op)
	}
	return nil
}

// topUpLists restores the square-sum condition Σ(d+1)² ≥ κ·β² on every
// dirty node whose out-degree outgrew its list. Extensions are
// deterministic: the RNG is seeded from the server seed, the node id, and
// the node's extension generation, so a replayed mutation sequence grows
// identical lists. Extending a list never invalidates the node's current
// color, so top-ups need no recoloring of their own.
func (s *Server) topUpLists() {
	for _, v := range s.dirty {
		beta := s.o.OutDegree(v)
		target := s.cfg.Kappa * float64(beta*beta)
		sum := 0.0
		for _, d := range s.list[v].Defect {
			sum += float64((d + 1) * (d + 1))
		}
		if sum >= target {
			continue
		}
		rng := rand.New(rand.NewSource(s.cfg.Seed ^ int64(v)*0x9E3779B9 ^ int64(s.topups[v])<<32))
		s.topups[v]++
		l := s.list[v]
		colors := append([]int(nil), l.Colors...)
		defs := append([]int(nil), l.Defect...)
		on := make(map[int]bool, len(colors))
		for _, c := range colors {
			on[c] = true
		}
		for sum < target {
			if len(colors) >= s.cfg.SpaceSize {
				panic("serve: color space exhausted while restoring square-sum condition")
			}
			c := rng.Intn(s.cfg.SpaceSize)
			if on[c] {
				continue
			}
			on[c] = true
			colors = append(colors, c)
			defs = append(defs, s.cfg.MaxDefect)
			sum += float64((s.cfg.MaxDefect + 1) * (s.cfg.MaxDefect + 1))
		}
		sort.Sort(&colorDefectSort{colors, defs})
		s.list[v] = coloring.NodeList{Colors: colors, Defect: defs}
	}
}

// colorDefectSort sorts a color list and its defects by color.
type colorDefectSort struct {
	colors []int
	defs   []int
}

func (p *colorDefectSort) Len() int           { return len(p.colors) }
func (p *colorDefectSort) Less(i, j int) bool { return p.colors[i] < p.colors[j] }
func (p *colorDefectSort) Swap(i, j int) {
	p.colors[i], p.colors[j] = p.colors[j], p.colors[i]
	p.defs[i], p.defs[j] = p.defs[j], p.defs[i]
}

// repair runs the scoped detect-and-repair loop over the dirty set.
func (s *Server) repair(rep *BatchReport) {
	in := s.input()
	viol := coloring.OLDCViolatorsIn(s.o, s.list, s.phi, s.dirty, nil)
	rep.InitialBad = len(viol)
	for iter := 0; iter < s.cfg.MaxRepairs && len(viol) > 0; iter++ {
		obs.EmitPhase(s.cfg.Tracer, "serve/repair", obs.Attrs{"batch": s.batches, "retry": iter, "violators": len(viol)})
		s.prev = s.prev[:0]
		for _, v := range viol {
			s.prev = append(s.prev, s.phi[v])
		}
		subStats, err := oldc.RepairRegion(in, s.phi, viol, oldc.RegionOptions{
			Tracer: s.cfg.Tracer, Metrics: s.cfg.Metrics, Scratch: s.scratch, Faults: s.cfg.Faults,
		})
		s.stats = s.stats.Add(subStats)
		rep.Rounds += subStats.Rounds
		rep.Repairs++
		if err != nil {
			break // budget exhausted or solver error: fall to the sweep
		}
		// Recheck the region plus the in-neighbors of every recolored node
		// — the only places a new violation can appear.
		next := viol[:len(viol):len(viol)]
		for i, v := range viol {
			if s.phi[v] != s.prev[i] {
				rep.Recolored++
				for _, u := range s.o.In(v) {
					next = append(next, int(u))
				}
			}
		}
		nv := coloring.OLDCViolatorsIn(s.o, s.list, s.phi, next, nil)
		if len(nv) >= len(viol) {
			viol = nv
			break // no progress; don't burn the remaining budget
		}
		viol = nv
	}
	if len(viol) > 0 {
		obs.EmitPhase(s.cfg.Tracer, "serve/greedy-sweep", obs.Attrs{"batch": s.batches, "violators": len(viol)})
		viol = s.sweep(rep, viol)
	}
	s.residual = append(s.residual[:0], viol...)
	rep.Residual = append([]int(nil), viol...)
}

// sweep is the scoped greedy fallback: GreedyRecolor each violator in
// ascending id order, rechecking the touched neighborhoods, for up to
// MaxSweeps passes. It returns the final violator set.
func (s *Server) sweep(rep *BatchReport, viol []int) []int {
	for pass := 0; pass < s.cfg.MaxSweeps && len(viol) > 0; pass++ {
		recheck := viol[:len(viol):len(viol)]
		for _, v := range viol {
			if x, changed := oldc.GreedyRecolor(s.o, s.list, s.phi, v); changed {
				s.phi[v] = x
				rep.Recolored++
				rep.SweepRecolored++
				for _, u := range s.o.In(v) {
					recheck = append(recheck, int(u))
				}
			}
		}
		viol = coloring.OLDCViolatorsIn(s.o, s.list, s.phi, recheck, nil)
	}
	return viol
}

// observe publishes one batch's metrics.
func (s *Server) observe(rep *BatchReport, elapsed time.Duration) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter(obs.MetricServeBatches).Add(1)
	reg.Counter(obs.MetricServeMutations).Add(int64(rep.Mutations))
	reg.Counter(obs.MetricServeRecolored).Add(int64(rep.Recolored))
	reg.Gauge(obs.MetricServeDirty).Set(int64(rep.Dirty))
	reg.Gauge(obs.MetricServeResidual).Set(int64(len(rep.Residual)))
	reg.Histogram(obs.MetricServeBatchMS, obs.ServeLatencyBuckets).Observe(float64(elapsed.Nanoseconds()) / 1e6)
}
