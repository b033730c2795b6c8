package fk24

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

type goldenInstance struct {
	name string
	o    *graph.Oriented
	seed int64
}

func goldenInstances() []goldenInstance {
	return []goldenInstance{
		{"regular-48-8", graph.OrientByID(graph.RandomRegular(48, 8, 3)), 11},
		{"gnp-64", graph.OrientByID(graph.GNP(64, 0.15, 5)), 13},
		{"tree-degen", graph.OrientDegeneracy(graph.RandomTree(40, 3)), 17},
	}
}

// prepareInput builds an fk24 instance over o: square-sum lists with
// defect budgets in [1, maxDefect] and node ids as the initial coloring.
func prepareInput(o *graph.Oriented, spaceSize int, kappa float64, maxDefect int, seed int64) Input {
	inst := coloring.SquareSumOrientedRange(o, spaceSize, kappa, 1, maxDefect, seed)
	n := o.N()
	init := make([]int, n)
	for v := range init {
		init[v] = v
	}
	return Input{O: o, SpaceSize: spaceSize, Lists: inst.Lists, InitColors: init, M: n}
}

// digest folds a coloring and its stats into one pinned value.
func digest(phi coloring.Assignment, stats sim.Stats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%+v", []int(phi), stats)
	return h.Sum64()
}

// goldenDigests pins the fk24 output per instance: any change to the
// algorithm's observable behavior (coloring or Stats) must update these
// deliberately.
var goldenDigests = map[string]uint64{
	"regular-48-8": 0x11fe798f3998caad,
	"gnp-64":       0xfeb394199034af54,
	"tree-degen":   0x47ba85e061adde93,
}

// TestGoldenBitIdentity pins Solve to the embedded digests and checks the
// output is bit-identical across engine worker counts and the family cache
// toggle.
func TestGoldenBitIdentity(t *testing.T) {
	for _, tc := range goldenInstances() {
		t.Run(tc.name, func(t *testing.T) {
			in := prepareInput(tc.o, 1<<12, 6.0, 3, tc.seed)
			ref := sim.NewEngine(tc.o.Graph())
			ref.SetWorkers(1)
			wantPhi, wantStats, err := Solve(ref, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digest(wantPhi, wantStats), goldenDigests[tc.name]; got != want {
				t.Errorf("golden digest drifted: got %#x want %#x", got, want)
			}
			for _, workers := range []int{2, 4, 7, 0} {
				for _, noCache := range []bool{false, true} {
					eng := sim.NewEngine(tc.o.Graph())
					if workers > 0 {
						eng.SetWorkers(workers)
					}
					phi, stats, err := Solve(eng, in, Options{NoFamilyCache: noCache})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantPhi, phi) {
						t.Errorf("workers=%d noCache=%v: coloring diverges", workers, noCache)
					}
					if !reflect.DeepEqual(wantStats, stats) {
						t.Errorf("workers=%d noCache=%v: stats diverge:\n want %+v\n  got %+v",
							workers, noCache, wantStats, stats)
					}
				}
			}
		})
	}
}

// TestSequentialPigeonhole checks the theorem-backed case: with B = m the
// schedule is fully sequential, and on instances satisfying the pigeonhole
// condition Σ_x (d_v(x)+1) > deg_out(v) (degree+1 lists with defect 0) the
// output must always be a valid OLDC — Solve validates internally.
func TestSequentialPigeonhole(t *testing.T) {
	f := func(nRaw uint8, pRaw uint8, seed int64) bool {
		n := int(nRaw)%50 + 2
		p := 0.05 + float64(pRaw%90)/100
		g := graph.GNP(n, p, seed)
		o := graph.OrientByID(g)
		inst := coloring.DegreePlusOne(g, 4*(g.MaxDegree()+1)+8, seed+1)
		init := make([]int, n)
		for v := range init {
			init[v] = v
		}
		in := Input{O: o, SpaceSize: 4*(g.MaxDegree()+1) + 8, Lists: inst.Lists, InitColors: init, M: n}
		phi, _, err := Solve(sim.NewEngine(g), in, Options{Buckets: n})
		if err != nil {
			t.Logf("n=%d p=%.2f seed=%d: %v", n, p, seed, err)
			return false
		}
		// Defect budgets are all 0 here, so the OLDC is a proper coloring
		// along arcs; re-check the stronger condition explicitly.
		for v := 0; v < n; v++ {
			for _, u := range o.Out(v) {
				if phi[v] == phi[int(u)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultBucketsValidity runs the default (parallel-bucket) schedule on
// random square-sum instances; Solve's internal CheckOLDC is the assertion,
// and the chosen color must come from the node's list.
func TestDefaultBucketsValidity(t *testing.T) {
	f := func(nRaw, dRaw uint8, seed int64) bool {
		n := int(nRaw)%80 + 8
		d := int(dRaw)%6 + 2
		if d >= n {
			d = n - 1
		}
		if n*d%2 != 0 {
			n++
		}
		g := graph.RandomRegular(n, d, seed)
		o := graph.OrientByID(g)
		in := prepareInput(o, 1<<12, 6.0, 4, seed+9)
		phi, _, err := Solve(sim.NewEngine(g), in, Options{})
		if err != nil {
			t.Logf("n=%d d=%d seed=%d: %v", n, d, seed, err)
			return false
		}
		for v := 0; v < n; v++ {
			found := false
			for _, c := range in.Lists[v].Colors {
				if c == phi[v] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAdversarialClique runs the sequential schedule on a clique — every
// commit is visible to every later node, the hardest sharing pattern — with
// uniform lists meeting the pigeonhole condition.
func TestAdversarialClique(t *testing.T) {
	const n = 24
	inst := coloring.CliqueUniform(n, 2, n)
	g := graph.Clique(n)
	o := graph.OrientByID(g)
	init := make([]int, n)
	for v := range init {
		init[v] = v
	}
	in := Input{O: o, SpaceSize: n, Lists: inst.Lists, InitColors: init, M: n}
	if _, _, err := Solve(sim.NewEngine(g), in, Options{Buckets: n}); err != nil {
		t.Fatal(err)
	}
}

// TestInputValidation covers the error paths.
func TestInputValidation(t *testing.T) {
	g := graph.Ring(4)
	o := graph.OrientByID(g)
	base := prepareInput(o, 64, 6.0, 2, 1)

	bad := base
	bad.InitColors = []int{0, 1}
	if _, _, err := Solve(sim.NewEngine(g), bad, Options{}); err == nil {
		t.Error("shape mismatch accepted")
	}

	bad = base
	bad.InitColors = []int{0, 1, 2, 99}
	if _, _, err := Solve(sim.NewEngine(g), bad, Options{}); err == nil {
		t.Error("out-of-range initial color accepted")
	}

	bad = base
	lists := make([]coloring.NodeList, 4)
	copy(lists, base.Lists)
	lists[2] = coloring.NodeList{}
	bad.Lists = lists
	if _, _, err := Solve(sim.NewEngine(g), bad, Options{}); err == nil {
		t.Error("empty list accepted")
	}
}
