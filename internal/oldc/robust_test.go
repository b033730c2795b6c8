package oldc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// refSolveRobust is SolveRobust with the whole-graph repair loop it had
// before Repair: the violators are recomputed over every node with
// coloring.OLDCViolators after each region re-solve and each sweep pass.
// solveRobustAgainstRef holds SolveRobust's scoped rechecks to it.
func refSolveRobust(eng *sim.Engine, in Input, pr cover.Params) (coloring.Assignment, RobustReport, error) {
	var rep RobustReport
	phi, stats, err := Solve(eng, in, Options{Params: pr, SkipValidate: true})
	rep.Stats = stats
	if err != nil {
		return nil, rep, err
	}

	n := in.O.N()
	violators := coloring.OLDCViolators(in.O, in.Lists, phi)
	rep.InitialBad = len(violators)
	rep.SurvivalRate = float64(n-len(violators)) / float64(n)

	for iter := 0; iter < MaxRepairs && len(violators) > 0; iter++ {
		rep.ResidualSizes = append(rep.ResidualSizes, len(violators))
		obs.EmitPhase(eng.Tracer(), "oldc/repair", obs.Attrs{"retry": iter, "violators": len(violators)})
		subStats, rerr := repairRegion(in, phi, violators, pr, sim.Options{Tracer: eng.Tracer(), Metrics: eng.Metrics()})
		rep.Stats = rep.Stats.Add(subStats)
		rep.RepairRounds += subStats.Rounds
		rep.Repairs++
		if rerr != nil {
			break
		}
		next := coloring.OLDCViolators(in.O, in.Lists, phi)
		if len(next) >= len(violators) {
			violators = next
			break
		}
		violators = next
	}

	if len(violators) > 0 {
		obs.EmitPhase(eng.Tracer(), "oldc/greedy-sweep", obs.Attrs{"violators": len(violators)})
		for pass := 0; pass < MaxSweeps && len(violators) > 0; pass++ {
			for _, v := range violators {
				if x, changed := greedyRecolor(in.O, in.Lists, phi, v); changed {
					phi[v] = x
					rep.FallbackNodes++
				}
			}
			violators = coloring.OLDCViolators(in.O, in.Lists, phi)
		}
	}
	if len(violators) > 0 {
		return phi, rep, &ErrResidual{Violators: violators}
	}
	if err := coloring.CheckOLDC(in.O, in.Lists, phi); err != nil {
		return phi, rep, fmt.Errorf("oldc: repaired coloring failed certification: %w", err)
	}
	return phi, rep, nil
}

// solveRobustAgainstRef runs SolveRobust and refSolveRobust on fresh
// engines over g with the same fault model, each traced to its own JSONL
// buffer, and fails the test unless the colorings, the reports (their %#v
// renderings), the errors and the trace bytes agree. It returns
// SolveRobust's results.
func solveRobustAgainstRef(t *testing.T, g *graph.Graph, in Input, faults sim.FaultModel, pr cover.Params) (coloring.Assignment, RobustReport, error) {
	t.Helper()
	type run struct {
		phi   coloring.Assignment
		rep   RobustReport
		err   error
		trace []byte
	}
	solve := func(f func(*sim.Engine, Input, cover.Params) (coloring.Assignment, RobustReport, error)) run {
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		phi, rep, err := f(sim.NewEngineWith(g, sim.Options{Faults: faults, Tracer: tr}), in, pr)
		if cerr := tr.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		return run{phi, rep, err, buf.Bytes()}
	}
	got, want := solve(SolveRobust), solve(refSolveRobust)
	if !reflect.DeepEqual(got.phi, want.phi) {
		t.Fatalf("coloring differs from the whole-graph reference:\ngot  %v\nwant %v", got.phi, want.phi)
	}
	if gr, wr := fmt.Sprintf("%#v", got.rep), fmt.Sprintf("%#v", want.rep); gr != wr {
		t.Fatalf("report differs from the whole-graph reference:\ngot  %s\nwant %s", gr, wr)
	}
	if !reflect.DeepEqual(got.err, want.err) {
		t.Fatalf("error differs from the whole-graph reference: got %v, want %v", got.err, want.err)
	}
	if !bytes.Equal(got.trace, want.trace) {
		t.Fatalf("trace differs from the whole-graph reference:\ngot\n%s\nwant\n%s", got.trace, want.trace)
	}
	return got.phi, got.rep, got.err
}

func TestSolveRobustFaultFreeMatchesSolve(t *testing.T) {
	g := graph.RandomRegular(64, 8, 3)
	o := graph.OrientByID(g)
	in, _ := prepareInput(t, o, 2048, 5.0, 2, 7)

	phiR, rep, err := SolveRobust(sim.NewEngine(g), in, cover.Params{})
	if err != nil {
		t.Fatal(err)
	}
	phiS, statsS, err := Solve(sim.NewEngine(g), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(phiR, phiS) {
		t.Fatal("fault-free SolveRobust diverged from Solve")
	}
	if !reflect.DeepEqual(rep.Stats, statsS) {
		t.Fatalf("fault-free stats diverged:\nrobust: %+v\nplain:  %+v", rep.Stats, statsS)
	}
	if rep.InitialBad != 0 || rep.Repairs != 0 || rep.FallbackNodes != 0 || rep.SurvivalRate != 1 {
		t.Fatalf("fault-free report should be clean: %+v", rep)
	}
}

// TestSolveRobustUnderBuiltinSchedules is the robustness acceptance
// criterion: under every built-in fault schedule on a Δ=64 instance,
// SolveRobust either returns a coloring CheckOLDC accepts or a typed
// *ErrResidual naming exactly the violating nodes — no panics, no
// silently invalid output — and matches the whole-graph reference
// refSolveRobust.
func TestSolveRobustUnderBuiltinSchedules(t *testing.T) {
	g := graph.RandomRegular(128, 64, 11)
	o := graph.OrientByID(g)
	in, _ := prepareInput(t, o, 1<<14, 5.0, 2, 13)

	for _, sched := range chaos.Builtin(g, 42) {
		sched := sched
		t.Run(sched.Name, func(t *testing.T) {
			phi, rep, err := solveRobustAgainstRef(t, g, in, sched.Plan.Model, cover.Params{})
			if rep.SurvivalRate < 0 || rep.SurvivalRate > 1 {
				t.Fatalf("survival rate %v outside [0,1]", rep.SurvivalRate)
			}
			// The fault ledger covers exactly the faulty run's rounds (the
			// repair engines are fault-free and contribute none).
			if got, want := len(rep.Stats.Faults), rep.Stats.Rounds-rep.RepairRounds; got != want {
				t.Fatalf("ledger has %d entries, faulty run had %d rounds", got, want)
			}
			if err != nil {
				var res *ErrResidual
				if !errors.As(err, &res) {
					t.Fatalf("error is not *ErrResidual: %v", err)
				}
				if len(res.Violators) == 0 {
					t.Fatal("ErrResidual with an empty violator set")
				}
				if got := coloring.OLDCViolators(o, in.Lists, phi); !reflect.DeepEqual(got, res.Violators) {
					t.Fatalf("named violators %v do not match the coloring's %v", res.Violators, got)
				}
				t.Logf("%s: residual of %d nodes after %d repairs (survival %.3f)",
					sched.Name, len(res.Violators), rep.Repairs, rep.SurvivalRate)
				return
			}
			if verr := coloring.CheckOLDC(o, in.Lists, phi); verr != nil {
				t.Fatalf("accepted coloring is invalid: %v", verr)
			}
			t.Logf("%s: survived %.3f, %d repairs over %d rounds, %d fallback recolorings, faults %+v",
				sched.Name, rep.SurvivalRate, rep.Repairs, rep.RepairRounds, rep.FallbackNodes,
				rep.Stats.TotalFaults())
		})
	}
}

// starved is a parameter profile with singleton candidate families: under
// a total blackout it leaves real violations for the repair loop.
var starved = cover.Params{TauScale: 1 << 20, TauFloor: 1, KPrimeCap: 1, KPrimeFloor: 1, SetSizeCap: 1, Alpha: 1}

// TestSolveRobustMatchesWholeGraphReference holds SolveRobust's scoped
// rechecks to refSolveRobust's whole-graph ones where the repair loop does
// real work: a total blackout under the starved profile, over 1,620 small
// instances. The grid must
// reach every exit of the loop: a second re-solve, the greedy sweep
// recoloring nodes (seeds 35 and 59), and a residual.
func TestSolveRobustMatchesWholeGraphReference(t *testing.T) {
	var twoRepairs, swept, residual int
	for seed := int64(1); seed <= 60; seed++ {
		for _, d := range []int{6, 12, 24} {
			g := graph.RandomRegular(64, d, seed)
			o := graph.OrientByID(g)
			for _, kappa := range []float64{0.3, 0.5, 1} {
				for _, maxDefect := range []int{0, 1, 3} {
					in, _ := prepareInput(t, o, 1024, kappa, maxDefect, seed+100)
					_, rep, err := solveRobustAgainstRef(t, g, in, chaos.Drop(uint64(seed), 1), starved)
					if rep.Repairs >= 2 {
						twoRepairs++
					}
					if rep.FallbackNodes > 0 {
						swept++
					}
					var res *ErrResidual
					if errors.As(err, &res) {
						residual++
					} else if err != nil {
						t.Fatalf("seed %d, d %d, κ %v, max defect %d: %v", seed, d, kappa, maxDefect, err)
					}
				}
			}
		}
	}
	if twoRepairs == 0 || swept == 0 || residual == 0 {
		t.Fatalf("grid reached %d runs with two or more re-solves, %d with sweep recolorings, %d with a residual; want each > 0",
			twoRepairs, swept, residual)
	}
}

func TestSolveRobustLedgerRecordsFaults(t *testing.T) {
	g := graph.RandomRegular(64, 16, 5)
	o := graph.OrientByID(g)
	in, _ := prepareInput(t, o, 4096, 5.0, 2, 9)

	eng := sim.NewEngineWith(g, sim.Options{Faults: chaos.Compose(
		chaos.Drop(3, 0.10), chaos.Flip(4, 0.10),
	)})
	_, rep, err := SolveRobust(eng, in, cover.Params{})
	if err != nil {
		var res *ErrResidual
		if !errors.As(err, &res) {
			t.Fatal(err)
		}
	}
	total := rep.Stats.TotalFaults()
	if total.Dropped == 0 || total.Corrupted == 0 {
		t.Fatalf("10%% drop+flip on a Δ=16 instance recorded no faults: %+v", total)
	}
}

// TestSolveRobustRepairsDamage drives the repair machinery end-to-end. The
// built-in schedules alone never produce violations at these scales (the
// algorithm's defect slack absorbs them), so the test combines a total
// communication blackout with a deliberately starved parameter profile
// (singleton candidate families) to force real violations; the
// detect-and-repair loop must then produce either a certified coloring or
// a consistent ErrResidual — never a silently invalid output.
func TestSolveRobustRepairsDamage(t *testing.T) {
	g := graph.RandomRegular(128, 16, 21)
	o := graph.OrientByID(g)
	in, _ := prepareInput(t, o, 128, 0.5, 0, 23)

	eng := sim.NewEngineWith(g, sim.Options{Faults: chaos.Drop(1, 1)})
	phi, rep, err := SolveRobust(eng, in, starved)
	if rep.InitialBad == 0 {
		t.Fatal("blackout + singleton families over zero-defect lists should violate somewhere")
	}
	if rep.Repairs == 0 {
		t.Fatal("no repair iterations ran despite initial violations")
	}
	if err != nil {
		var res *ErrResidual
		if !errors.As(err, &res) {
			t.Fatalf("error is not *ErrResidual: %v", err)
		}
		if got := coloring.OLDCViolators(o, in.Lists, phi); !reflect.DeepEqual(got, res.Violators) {
			t.Fatalf("named violators %v do not match the coloring's %v", res.Violators, got)
		}
		t.Logf("blackout: residual %d of %d initial bad", len(res.Violators), rep.InitialBad)
		return
	}
	if verr := coloring.CheckOLDC(o, in.Lists, phi); verr != nil {
		t.Fatalf("accepted coloring is invalid: %v", verr)
	}
	t.Logf("blackout: %d initial bad repaired in %d iterations (+%d greedy), residuals %v",
		rep.InitialBad, rep.Repairs, rep.FallbackNodes, rep.ResidualSizes)
}

func TestRepairResidualBudgets(t *testing.T) {
	// A 4-path oriented by id (arcs 1→0, 2→1, 3→2), everything colored 5.
	// Nodes 1 and 2 violate their zero defects; 0 has no out-neighbors and
	// 3 tolerates one collision, so the violator set is exactly {1, 2}.
	g := graph.Path(4)
	o := graph.OrientByID(g)
	lists := []coloring.NodeList{
		{Colors: []int{5}, Defect: []int{0}},
		{Colors: []int{5, 9}, Defect: []int{0, 0}},
		{Colors: []int{5, 9}, Defect: []int{0, 0}},
		{Colors: []int{5}, Defect: []int{1}},
	}
	phi := coloring.Assignment{5, 5, 5, 5}
	in := Input{O: o, SpaceSize: 16, Lists: lists, InitColors: []int{0, 1, 2, 3}, M: 4}

	violators := coloring.OLDCViolators(o, lists, phi)
	if !reflect.DeepEqual(violators, []int{1, 2}) {
		t.Fatalf("setup: violators = %v, want [1 2]", violators)
	}
	if _, err := repairRegion(in, phi, violators, cover.Params{}, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	// Node 1 points at fixed node 0 (color 5) with defect 0 for color 5, so
	// its residual budget for 5 is negative: the residual list must exclude
	// 5 and node 1 must be recolored 9.
	if phi[1] != 9 {
		t.Fatalf("node 1 recolored to %d, want 9", phi[1])
	}
	// Nodes outside the region must be untouched.
	if phi[0] != 5 || phi[3] != 5 {
		t.Fatalf("repair touched fixed nodes: %v", phi)
	}
	// Node 2's only out-neighbor (node 1) is in the region, so both its
	// colors keep their budgets; whatever it picks must satisfy the merged
	// instance.
	if got := coloring.OLDCViolators(o, lists, phi); len(got) != 0 {
		t.Fatalf("merged repair leaves violators %v (phi=%v)", got, phi)
	}
}

func TestGreedySweepFixesLocalViolation(t *testing.T) {
	// Star center 0 oriented toward all leaves; center shares the leaves'
	// color with zero defect → violator. The sweep must move it to 7.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	o := graph.OrientByID(g) // all edges point to smaller id... 1→0 etc.
	// OrientByID points larger→smaller, so leaves point at the center; use
	// the center's view: leaves are the violators' out-neighbors. Give the
	// leaves the conflict instead.
	lists := []coloring.NodeList{
		{Colors: []int{3}, Defect: []int{3}},
		{Colors: []int{3, 7}, Defect: []int{0, 0}},
		{Colors: []int{3, 7}, Defect: []int{0, 0}},
		{Colors: []int{3, 7}, Defect: []int{0, 0}},
	}
	phi := coloring.Assignment{3, 3, 3, 3}
	violators := coloring.OLDCViolators(o, lists, phi)
	if len(violators) != 3 {
		t.Fatalf("setup: want the 3 leaves violating, got %v", violators)
	}
	violators, touched := sweep(o, lists, phi, violators)
	if len(violators) != 0 {
		t.Fatalf("sweep left violators %v (phi=%v)", violators, phi)
	}
	if touched == 0 {
		t.Fatal("sweep reported no work")
	}
	if phi[1] != 7 || phi[2] != 7 || phi[3] != 7 {
		t.Fatalf("leaves should move to 7: %v", phi)
	}
}

// TestSweepRechecksInNeighbors pins sweep's scoped recheck. On the path
// 2→1→0, recoloring node 1 makes its in-neighbor 2 violate, and only a
// second pass fixes it: a sweep that rechecked just its violators, or ran
// one pass, would leave node 2 in violation.
func TestSweepRechecksInNeighbors(t *testing.T) {
	o := graph.OrientByID(graph.Path(3))
	lists := []coloring.NodeList{
		{Colors: []int{3}, Defect: []int{0}},
		{Colors: []int{3, 7}, Defect: []int{0, 0}},
		{Colors: []int{7, 9}, Defect: []int{0, 0}},
	}
	phi := coloring.Assignment{3, 3, 7}
	left, recolored := sweep(o, lists, phi, []int{1})
	if len(left) != 0 || recolored != 2 || !reflect.DeepEqual(phi, coloring.Assignment{3, 7, 9}) {
		t.Fatalf("sweep left %v after %d recolorings with phi %v; want none after 2 with phi [3 7 9]", left, recolored, phi)
	}
}
