package oldc

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

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
// silently invalid output.
func TestSolveRobustUnderBuiltinSchedules(t *testing.T) {
	g := graph.RandomRegular(128, 64, 11)
	o := graph.OrientByID(g)
	in, _ := prepareInput(t, o, 1<<14, 5.0, 2, 13)

	for _, sched := range chaos.Builtin(g, 42) {
		sched := sched
		t.Run(sched.Name, func(t *testing.T) {
			eng := sim.NewEngineWith(g, sim.Options{Faults: sched.Model})
			phi, rep, err := SolveRobust(eng, in, cover.Params{})
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

	starved := cover.Params{TauScale: 1 << 20, TauFloor: 1, KPrimeCap: 1, KPrimeFloor: 1, SetSizeCap: 1, Alpha: 1}
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
	if _, err := RepairRegion(in, phi, violators, RegionOptions{}); err != nil {
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
	touched := greedySweep(o, lists, phi, &violators)
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
