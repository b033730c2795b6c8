package oldc

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestSolveMultiDeterministic(t *testing.T) {
	g := graph.RandomRegular(40, 8, 81)
	o := graph.OrientByID(g)
	run := func() coloring.Assignment {
		in, eng := prepareInput(t, o, 1<<12, 5.0, 2, 83)
		phi, _, err := SolveMulti(eng, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return phi
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func TestSolveSymmetricOrientationIsUndirected(t *testing.T) {
	// With the symmetric orientation, OLDC defects count all neighbors:
	// the undirected equivalence remarked after Theorem 1.2.
	g := graph.RandomRegular(36, 6, 85)
	o := graph.OrientSymmetric(g)
	in, eng := prepareInput(t, o, 1<<12, 5.0, 2, 87)
	phi, _, err := Solve(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uin := &coloring.Instance{G: g, SpaceSize: in.SpaceSize, Lists: in.Lists}
	if err := coloring.CheckLDC(uin, phi); err != nil {
		t.Fatalf("undirected defect bound violated: %v", err)
	}
}

func TestSolveMultiPropertyAcrossSeeds(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GNP(32, 0.2, seed)
		o := graph.OrientByID(g)
		eng := sim.NewEngine(g)
		init, m := identityColoring(g)
		inst, err := coloring.SquareSumOrientedRange(o, 1<<12, 5.0, 1, 3, seed)
		if err != nil {
			return false
		}
		in := Input{O: o, SpaceSize: 1 << 12, Lists: inst.Lists, InitColors: init, M: m}
		phi, _, err := SolveMulti(eng, in, Options{})
		if err != nil {
			return false
		}
		return coloring.CheckOLDC(o, in.Lists, phi) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// identityColoring uses unique ids as the initial proper coloring.
func identityColoring(g *graph.Graph) ([]int, int) {
	ids := make([]int, g.N())
	for i := range ids {
		ids[i] = i
	}
	return ids, g.N()
}

// TestFamilyCacheDeterminism pins that the shared family cache keeps
// outputs worker-count independent: the same coloring and Stats must come
// out for every worker count — i.e. neither the order in which concurrent
// Inbox callbacks fill the cache nor their interleaving may leak into
// outputs. (cover's TestCachedFamilyMatchesFamily pins a cached family to
// the uncached derivation.)
func TestFamilyCacheDeterminism(t *testing.T) {
	g := graph.RandomRegular(40, 8, 81)
	o := graph.OrientByID(g)
	type result struct {
		phi   coloring.Assignment
		stats sim.Stats
	}
	run := func(workers int) result {
		in, eng := prepareInput(t, o, 1<<12, 5.0, 2, 83)
		if workers > 0 {
			eng.SetWorkers(workers)
		}
		phi, stats, err := Solve(eng, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return result{phi, stats}
	}
	want := run(1) // the serial run is the baseline
	for _, workers := range []int{2, 4, 0} {
		got := run(workers)
		for v := range want.phi {
			if want.phi[v] != got.phi[v] {
				t.Fatalf("workers=%d: color diverges at node %d", workers, v)
			}
		}
		if want.stats.Messages != got.stats.Messages || want.stats.TotalBits != got.stats.TotalBits ||
			want.stats.Rounds != got.stats.Rounds {
			t.Fatalf("workers=%d: stats diverge: want %+v got %+v", workers, want.stats, got.stats)
		}
	}
}

// digestFaultSchedule pins TestFaultScheduleDeterminism's drop+flip+crash
// run: the coloring, the RobustReport (Stats with the per-round fault
// ledger, repairs, residual sizes) and the residual violators. The
// reference solves of the golden tests see the same fault model as the
// solves they check, so a faulted-delivery bug in the engine moves both
// sides alike; this fixed string does not move with it. Recorded at
// 9751012.
const digestFaultSchedule = "ddacac24f2ed1c48"

// TestFaultScheduleDeterminism is the chaos-harness determinism
// regression: identical seeds and fault schedule must produce
// bit-identical colorings, Stats, and per-round fault ledgers regardless
// of the worker count — fault injection happens inside the parallel
// routing workers, so this pins that neither drop/corrupt decisions nor
// ledger accounting depend on scheduling — and must match
// digestFaultSchedule at workers 1, 2 and 4.
func TestFaultScheduleDeterminism(t *testing.T) {
	g := graph.RandomRegular(64, 16, 51)
	o := graph.OrientByID(g)
	type result struct {
		phi      coloring.Assignment
		rep      RobustReport
		residual []int
	}
	run := func(workers int) result {
		in, _ := prepareInput(t, o, 1<<13, 5.0, 2, 53)
		model := chaos.Compose(
			chaos.Drop(7, 0.08),
			chaos.Flip(8, 0.08),
			chaos.CrashWindow(3, 1, 3),
		)
		eng := sim.NewEngineWith(g, sim.Options{Faults: model})
		if workers > 0 {
			eng.SetWorkers(workers)
		}
		phi, rep, err := SolveRobust(eng, in, cover.Params{})
		var res *ErrResidual
		if err != nil && !errors.As(err, &res) {
			t.Fatal(err)
		}
		r := result{phi: phi, rep: rep}
		if res != nil {
			r.residual = res.Violators
		}
		return r
	}
	want := run(1)
	if len(want.rep.Stats.Faults) == 0 || want.rep.Stats.TotalFaults().Dropped == 0 {
		t.Fatal("schedule recorded no faults; the regression would be vacuous")
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got := want
		if workers != 1 {
			got = run(workers)
		}
		if workers >= 1 && workers <= 4 {
			checkDigest(t, fmt.Sprintf("workers=%d", workers), digest(got.phi, got.rep, got.residual), digestFaultSchedule)
		}
		if !reflect.DeepEqual(want.phi, got.phi) {
			t.Fatalf("workers=%d: coloring diverges from serial run", workers)
		}
		if !reflect.DeepEqual(want.rep.Stats, got.rep.Stats) {
			t.Fatalf("workers=%d: stats/fault ledger diverge:\nwant %+v\ngot  %+v",
				workers, want.rep.Stats, got.rep.Stats)
		}
		if !reflect.DeepEqual(want.rep, got.rep) {
			t.Fatalf("workers=%d: robust report diverges:\nwant %+v\ngot  %+v",
				workers, want.rep, got.rep)
		}
		if !reflect.DeepEqual(want.residual, got.residual) {
			t.Fatalf("workers=%d: residual violators diverge: want %v got %v", workers, want.residual, got.residual)
		}
	}
}

// TestFamilyCacheDeterminismMulti covers the basic algorithm (SolveMulti)
// with a nonzero gap, where families flow through the shifted-window
// kernels.
func TestFamilyCacheDeterminismMulti(t *testing.T) {
	g := graph.RandomRegular(36, 6, 91)
	o := graph.OrientByID(g)
	run := func(workers int) coloring.Assignment {
		in, eng := prepareInput(t, o, 1<<12, 5.0, 2, 93)
		if workers > 0 {
			eng.SetWorkers(workers)
		}
		phi, _, err := SolveMulti(eng, in, Options{Gap: 1, SkipValidate: true})
		if err != nil {
			t.Fatal(err)
		}
		return phi
	}
	want := run(1)
	for _, workers := range []int{4, 0} {
		got := run(workers)
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("workers=%d: color diverges at node %d", workers, v)
			}
		}
	}
}
