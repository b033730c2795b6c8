package serve

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// genBatch generates a batch of valid mutations against the live graph.
// Mutations within a batch touch disjoint endpoints, so validity against
// the pre-batch graph implies validity during sequential application.
func genBatch(rng *rand.Rand, g *graph.Graph, size int) []Mutation {
	var batch []Mutation
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
		switch rng.Intn(10) {
		case 0:
			batch = append(batch, Mutation{Op: OpAddNode})
		case 1:
			v := rng.Intn(g.N())
			if free(v) {
				batch = append(batch, Mutation{Op: OpRemoveNode, U: v})
			}
		case 2, 3, 4, 5:
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) && free(u, v) {
				batch = append(batch, Mutation{Op: OpAddEdge, U: u, V: v})
			}
		default:
			u := rng.Intn(g.N())
			if nbrs := g.Neighbors(u); len(nbrs) > 0 {
				v := int(nbrs[rng.Intn(len(nbrs))])
				if free(u, v) {
					batch = append(batch, Mutation{Op: OpRemoveEdge, U: u, V: v})
				}
			}
		}
	}
	return batch
}

// TestServeChurnProperty is the sustained-churn acceptance test: at Δ=8
// and Δ=64, after every mutation batch the incremental coloring must
// validate (the full-graph violator set equals the reported residual,
// which must drain), and a from-scratch solve of the mutated instance
// must also validate — the incremental path never paints the service into
// an unsolvable corner.
func TestServeChurnProperty(t *testing.T) {
	cases := []struct {
		name    string
		n, deg  int
		batches int
	}{
		{"delta8", 96, 8, 25},
		{"delta64", 80, 64, 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := graph.RandomRegular(tc.n, tc.deg, 7)
			s, err := New(g, Config{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			o, lists, residual := s.Instance()
			if len(residual) != 0 {
				t.Fatalf("initial solve left residual %v", residual)
			}
			if verr := coloring.CheckOLDC(o, lists, s.Snapshot()); verr != nil {
				t.Fatalf("initial coloring invalid: %v", verr)
			}

			rng := rand.New(rand.NewSource(int64(tc.deg)))
			for b := 0; b < tc.batches; b++ {
				batch := genBatch(rng, o.Graph(), 1+rng.Intn(6))
				rep, err := s.Apply(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				o, lists, residual = s.Instance()
				full := coloring.OLDCViolators(o, lists, s.Snapshot())
				want := append([]int(nil), rep.Residual...)
				sort.Ints(want)
				if !reflect.DeepEqual(full, want) && !(len(full) == 0 && len(want) == 0) {
					t.Fatalf("batch %d: full violators %v != reported residual %v", b, full, rep.Residual)
				}
				if len(full) != 0 {
					t.Fatalf("batch %d: incremental coloring left violators %v (report %+v)", b, full, rep)
				}
			}

			// From-scratch solve of the final mutated instance validates too.
			in := oldc.Input{O: o, SpaceSize: 4096, Lists: lists, InitColors: identity(o.N()), M: o.N()}
			phi, _, err := oldc.SolveRobust(sim.NewEngine(o.Graph()), in, oldc.RobustOptions{})
			if err != nil {
				t.Fatalf("from-scratch solve of mutated instance: %v", err)
			}
			if verr := coloring.CheckOLDC(o, lists, phi); verr != nil {
				t.Fatalf("from-scratch coloring invalid: %v", verr)
			}
		})
	}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestServeReplayDeterminism pins the determinism contract: two servers
// built from the same graph and config, fed the same mutation sequence,
// produce bit-identical colorings and batch reports after every batch.
func TestServeReplayDeterminism(t *testing.T) {
	build := func() *Server {
		g := graph.RandomRegular(64, 8, 3)
		s, err := New(g, Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("initial solves diverge")
	}

	rng := rand.New(rand.NewSource(5))
	var script [][]Mutation
	for i := 0; i < 15; i++ {
		o, _, _ := a.Instance()
		batch := genBatch(rng, o.Graph(), 1+rng.Intn(5))
		script = append(script, batch)
		if _, err := a.Apply(batch); err != nil {
			t.Fatalf("batch %d on a: %v", i, err)
		}
	}
	for i, batch := range script {
		repB, err := b.Apply(batch)
		if err != nil {
			t.Fatalf("batch %d on b: %v", i, err)
		}
		if repB.Batch != i+1 {
			t.Fatalf("batch numbering diverged: %d vs %d", repB.Batch, i+1)
		}
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("replayed colorings diverge")
	}
	// The lists (including deterministic top-ups) must match as well.
	_, la, _ := a.Instance()
	_, lb, _ := b.Instance()
	if !reflect.DeepEqual(la, lb) {
		t.Fatal("replayed lists diverge")
	}
}

// TestServeLeavesCallerGraph pins that the server works on its own copy:
// an applied add_edge changes the server's graph and not the one passed to
// New.
func TestServeLeavesCallerGraph(t *testing.T) {
	g := graph.Path(6)
	want := make([][]int32, g.N())
	for v := range want {
		want[v] = append([]int32(nil), g.Neighbors(v)...)
	}
	s, err := New(g, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Mutation{{Op: OpAddEdge, U: 0, V: 5}}); err != nil {
		t.Fatal(err)
	}
	if o, _, _ := s.Instance(); !o.Graph().HasEdge(0, 5) {
		t.Fatal("server graph is missing the applied edge")
	}
	if g.M() != 5 {
		t.Errorf("caller graph has %d edges after Apply, want 5", g.M())
	}
	for v := range want {
		if !reflect.DeepEqual(g.Neighbors(v), want[v]) {
			t.Errorf("caller graph: neighbors of %d = %v, want %v", v, g.Neighbors(v), want[v])
		}
	}
}

func TestServeApplyErrorsFailFast(t *testing.T) {
	g := graph.Path(6)
	s, err := New(g, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// First mutation applies, second fails, third never runs.
	rep, err := s.Apply([]Mutation{
		{Op: OpAddEdge, U: 0, V: 5},
		{Op: OpAddEdge, U: 2, V: 2},
		{Op: OpAddNode},
	})
	if !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("want ErrSelfLoop, got %v", err)
	}
	if rep.Mutations != 1 {
		t.Fatalf("applied %d mutations before failing, want 1", rep.Mutations)
	}
	if s.N() != 6 {
		t.Fatalf("third mutation ran after the failure: n=%d", s.N())
	}
	o, lists, _ := s.Instance()
	if !o.Graph().HasEdge(0, 5) {
		t.Fatal("first mutation of the failed batch was rolled back")
	}
	// Even a failed batch leaves a valid coloring.
	if verr := coloring.CheckOLDC(o, lists, s.Snapshot()); verr != nil {
		t.Fatalf("coloring invalid after failed batch: %v", verr)
	}

	for _, tc := range []struct {
		name string
		m    Mutation
		want error
	}{
		{"unknown op", Mutation{Op: "recolor"}, ErrUnknownOp},
		{"range", Mutation{Op: OpAddEdge, U: 0, V: 99}, graph.ErrVertexRange},
		{"exists", Mutation{Op: OpAddEdge, U: 1, V: 0}, graph.ErrEdgeExists},
		{"missing", Mutation{Op: OpRemoveEdge, U: 0, V: 3}, graph.ErrNoSuchEdge},
		{"detach range", Mutation{Op: OpRemoveNode, U: -1}, graph.ErrVertexRange},
	} {
		if _, err := s.Apply([]Mutation{tc.m}); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestServeColorQueriesAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := graph.RandomRegular(32, 4, 9)
	s, err := New(g, Config{Seed: 2, Metrics: reg, VerifyEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	phi := s.Snapshot()
	for v := 0; v < s.N(); v++ {
		c, err := s.Color(v)
		if err != nil {
			t.Fatal(err)
		}
		if c != phi[v] {
			t.Fatalf("Color(%d)=%d, snapshot says %d", v, c, phi[v])
		}
	}
	if _, err := s.Color(-1); !errors.Is(err, graph.ErrVertexRange) {
		t.Fatalf("negative query: %v", err)
	}
	if _, err := s.Color(32); !errors.Is(err, graph.ErrVertexRange) {
		t.Fatalf("out-of-range query: %v", err)
	}
	rep, err := s.Apply([]Mutation{{Op: OpAddNode}, {Op: OpRemoveNode, U: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("VerifyEveryBatch failed: %+v", rep)
	}
	if s.Batches() != 1 {
		t.Fatalf("batches = %d, want 1", s.Batches())
	}

	snap := reg.Snapshot()
	if got := snap.Counters[obs.MetricServeQueries]; got != 34 {
		t.Fatalf("%s = %d, want 34", obs.MetricServeQueries, got)
	}
	if got := snap.Counters[obs.MetricServeBatches]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricServeBatches, got)
	}
	if got := snap.Counters[obs.MetricServeMutations]; got != 2 {
		t.Fatalf("%s = %d, want 2", obs.MetricServeMutations, got)
	}
	if _, ok := snap.Histograms[obs.MetricServeBatchMS]; !ok {
		t.Fatalf("missing %s histogram", obs.MetricServeBatchMS)
	}
}

// TestServeAddNodeGetsListAndColor pins the node-growth path: a fresh
// node receives a deterministic square-sum list, a color from it, and
// participates in later constraints.
func TestServeAddNodeGetsListAndColor(t *testing.T) {
	g := graph.Path(4)
	s, err := New(g, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Apply([]Mutation{{Op: OpAddNode}})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 {
		t.Fatalf("n = %d after add_node", s.N())
	}
	if len(rep.Residual) != 0 {
		t.Fatalf("residual after add_node: %v", rep.Residual)
	}
	_, lists, _ := s.Instance()
	if lists[4].Len() == 0 {
		t.Fatal("new node got no list")
	}
	c, err := s.Color(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lists[4].DefectOf(c); !ok {
		t.Fatalf("new node's color %d is off its list %v", c, lists[4].Colors)
	}
	// Wire it into the graph; the coloring must stay valid.
	if _, err := s.Apply([]Mutation{{Op: OpAddEdge, U: 4, V: 0}, {Op: OpAddEdge, U: 4, V: 2}}); err != nil {
		t.Fatal(err)
	}
	o, lists, _ := s.Instance()
	if got := coloring.OLDCViolators(o, lists, s.Snapshot()); len(got) != 0 {
		t.Fatalf("violators after wiring new node: %v", got)
	}
}
