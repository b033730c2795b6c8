package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/congest"
	"repro/internal/cover"
	"repro/internal/fk24"
	"repro/internal/graph"
	"repro/internal/maus21"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// instance is a Theorem 1.1 workload: a random Δ-regular graph oriented
// by id, square-sum lists over [space] with parameter κ, and the identity
// initial coloring (m = n). Space and κ grow with Δ so every instance
// solves validly under cover.Practical().
type instance struct {
	n, delta, space int
	kappa           float64
}

// quickInstances are the reduced instances of every -quick OLDC suite.
var quickInstances = []instance{{128, 8, 1 << 12, 5.0}, {128, 16, 1 << 13, 5.5}, {96, 32, 1 << 14, 6.0}}

func (c instance) params() map[string]any {
	return map[string]any{"n": c.n, "delta": c.delta, "space": c.space, "kappa": c.kappa}
}

func (c instance) input() oldc.Input {
	o := graph.OrientByID(graph.RandomRegular(c.n, c.delta, 1))
	init := make([]int, c.n)
	for v := range init {
		init[v] = v
	}
	inst := coloring.SquareSumOriented(o, c.space, c.kappa, 3, 7)
	return oldc.Input{O: o, SpaceSize: c.space, Lists: inst.Lists, InitColors: init, M: c.n}
}

// solveCounts are the counts every solve row reports.
func solveCounts(st sim.Stats, phi coloring.Assignment) map[string]any {
	return map[string]any{
		"rounds": st.Rounds, "messages": st.Messages, "bits": st.TotalBits,
		"max_msg_bits": st.MaxMessageBits, "colors": coloring.CountColors(phi),
	}
}

// oldcCases is the Theorem 1.1 suite: oldc.Solve end to end (γ-class
// selection, two-phase algorithm and validation) on one reused engine.
func oldcCases(quick bool) []benchCase {
	specs := []instance{{2048, 8, 1 << 12, 5.0}, {1024, 64, 1 << 14, 6.0}, {1024, 128, 1 << 15, 6.0}}
	if quick {
		specs = quickInstances
	}
	var cases []benchCase
	for _, c := range specs {
		cases = append(cases, benchCase{
			name:   fmt.Sprintf("solve/delta=%d", c.delta),
			params: c.params(),
			build: func() (benchOp, error) {
				in := c.input()
				eng := sim.NewEngine(in.O.Graph())
				return func() (result, error) {
					start := time.Now()
					phi, st, err := oldc.Solve(eng, in, oldc.Options{})
					return result{
						counts:  solveCounts(st, phi),
						timings: map[string]time.Duration{"solve": time.Since(start)},
						valid:   err == nil,
					}, nil
				}, nil
			},
		})
	}
	return cases
}

// chaosCases is the robustness suite: oldc.SolveRobust (detect and
// repair) on one Δ=64 instance under every chaos.Builtin fault schedule.
func chaosCases(quick bool) []benchCase {
	c := instance{512, 64, 1 << 14, 6.0}
	if quick {
		c = quickInstances[1]
	}
	in := c.input()
	g := in.O.Graph()
	var cases []benchCase
	for _, sched := range chaos.Builtin(g, 42) {
		params := c.params()
		params["schedule"] = sched.Name
		cases = append(cases, benchCase{
			name:   sched.Name,
			params: params,
			build: func() (benchOp, error) {
				eng := sim.NewEngineWith(g, sim.Options{Faults: sched.Plan.Model})
				return func() (result, error) {
					start := time.Now()
					_, rr, err := oldc.SolveRobust(eng, in, cover.Params{})
					el := time.Since(start)
					faults := rr.Stats.TotalFaults()
					finalBad := 0
					if err != nil {
						// A non-residual error means the run itself failed:
						// count every node as bad so the row cannot read as
						// healthy.
						finalBad = c.n
						var res *oldc.ErrResidual
						if errors.As(err, &res) {
							finalBad = len(res.Violators)
						}
					}
					return result{
						counts: map[string]any{
							"rounds": rr.Stats.Rounds, "dropped": faults.Dropped, "corrupted": faults.Corrupted,
							"decode_faults": faults.DecodeFaults, "initial_bad": rr.InitialBad,
							"survival_rate": rr.SurvivalRate, "repairs": rr.Repairs, "repair_rounds": rr.RepairRounds,
							"residuals": rr.ResidualSizes, "fallback_recolorings": rr.FallbackNodes, "final_bad": finalBad,
						},
						timings: map[string]time.Duration{"solve": el},
						valid:   err == nil,
					}, nil
				}, nil
			},
		})
	}
	return cases
}

// matrixSolver is one contender of the who-wins matrix. It solves its
// problem ("oldc" on the shared instance, or "proper") and returns the
// palette bound a proper coloring is checked against. A contender with a
// theorem bound checks it with bound.
type matrixSolver struct {
	family, knob, problem string
	run                   func(g *graph.Graph, in oldc.Input) (coloring.Assignment, sim.Stats, int, error)
	bound                 rowBound
}

// rowBound records a row's theorem bound as the count <metric>_bound and
// reports whether the metric stays within it.
type rowBound func(g *graph.Graph, in oldc.Input, counts map[string]any) bool

// atMost returns the rowBound metric ≤ bound(g, in).
func atMost(metric string, bound func(g *graph.Graph, in oldc.Input) int) rowBound {
	return func(g *graph.Graph, in oldc.Input, counts map[string]any) bool {
		b := bound(g, in)
		counts[metric+"_bound"] = b
		return counts[metric].(int) <= b
	}
}

// fk24Rounds bounds an fk24 row by its schedule length, B + 2 rounds for
// B buckets.
func fk24Rounds(buckets func(in oldc.Input) int) rowBound {
	return atMost("rounds", func(_ *graph.Graph, in oldc.Input) int { return buckets(in) + 2 })
}

// colorsDelta1 bounds a (Δ+1)-coloring row by its palette.
var colorsDelta1 = atMost("colors", func(g *graph.Graph, _ oldc.Input) int { return g.MaxDegree() + 1 })

// matrixSolvers enumerates the contenders: the Theorem 1.1 OLDC solver,
// the Fuchs–Kuhn 2024 iterative framework at two bucket depths, the Maus
// 2021 O(kΔ) trade-off at two knob values, the full Theorem 1.4 CONGEST
// stack, and the degree-sequential Luby baseline.
var matrixSolvers = []matrixSolver{
	{"oldc", "base", "oldc", func(g *graph.Graph, in oldc.Input) (coloring.Assignment, sim.Stats, int, error) {
		phi, st, err := oldc.Solve(sim.NewEngine(g), in, oldc.Options{})
		return phi, st, 0, err
	}, nil},
	{"fk24", "buckets=default", "oldc", func(g *graph.Graph, in oldc.Input) (coloring.Assignment, sim.Stats, int, error) {
		phi, st, err := fk24.Solve(sim.NewEngine(g), in, fk24.Options{})
		return phi, st, 0, err
	}, fk24Rounds(func(in oldc.Input) int { return fk24.DefaultBuckets(in.O, in.M) })},
	{"fk24", "buckets=m", "oldc", func(g *graph.Graph, in oldc.Input) (coloring.Assignment, sim.Stats, int, error) {
		phi, st, err := fk24.Solve(sim.NewEngine(g), in, fk24.Options{Buckets: in.M})
		return phi, st, 0, err
	}, fk24Rounds(func(in oldc.Input) int { return in.M })},
	{"maus21", "k=2", "proper", func(g *graph.Graph, _ oldc.Input) (coloring.Assignment, sim.Stats, int, error) {
		phi, colors, st, err := maus21.Solve(sim.NewEngine(g), g, maus21.Options{K: 2})
		return phi, st, colors, err
	}, nil},
	{"maus21", "k=4", "proper", func(g *graph.Graph, _ oldc.Input) (coloring.Assignment, sim.Stats, int, error) {
		phi, colors, st, err := maus21.Solve(sim.NewEngine(g), g, maus21.Options{K: 4})
		return phi, st, colors, err
	}, nil},
	{"delta1", "base", "proper", func(g *graph.Graph, _ oldc.Input) (coloring.Assignment, sim.Stats, int, error) {
		res, err := congest.DeltaPlusOne(g, congest.Config{})
		return res.Phi, res.Stats, g.MaxDegree() + 1, err
	}, colorsDelta1},
	{"degluby", "base", "proper", func(g *graph.Graph, _ oldc.Input) (coloring.Assignment, sim.Stats, int, error) {
		phi, st, err := baseline.DegreeLuby(sim.NewEngine(g), g, 1)
		return phi, st, g.MaxDegree() + 1, err
	}, colorsDelta1},
}

// matrixCases is the E14 who-wins matrix: every contender on the same
// instance in each Δ column. OLDC rows are checked against the shared
// lists under the by-ID orientation, proper rows against their palette
// bound; a solver error aborts the suite. fk24 rows also check their
// B + 2 rounds, and the (Δ+1)-coloring rows (delta1, degluby) their Δ+1
// colors.
func matrixCases(quick bool) []benchCase {
	columns := []instance{{512, 8, 1 << 12, 5.0}, {512, 64, 1 << 14, 6.0}, {512, 128, 1 << 15, 6.0}}
	if quick {
		columns = quickInstances
	}
	var cases []benchCase
	for _, c := range columns {
		in := c.input()
		g := in.O.Graph()
		for _, s := range matrixSolvers {
			params := c.params()
			params["family"], params["knob"], params["problem"] = s.family, s.knob, s.problem
			cases = append(cases, benchCase{
				name:   fmt.Sprintf("%s/%s/delta=%d", s.family, s.knob, c.delta),
				params: params,
				build: func() (benchOp, error) {
					return func() (result, error) {
						start := time.Now()
						phi, st, bound, err := s.run(g, in)
						el := time.Since(start)
						if err != nil {
							return result{}, err
						}
						r := result{counts: solveCounts(st, phi), timings: map[string]time.Duration{"solve": el}}
						if s.problem == "oldc" {
							r.valid = coloring.CheckOLDC(in.O, in.Lists, phi) == nil
							r.doc = func() verifyDoc { return listDoc("oldc-by-id", g, in.SpaceSize, in.Lists, phi) }
						} else {
							r.valid = coloring.CheckProper(g, phi, bound) == nil
							r.doc = func() verifyDoc { return properDoc(g, bound, phi) }
						}
						if s.bound != nil {
							r.valid = s.bound(g, in, r.counts) && r.valid
						}
						return r, nil
					}, nil
				},
			})
		}
	}
	return cases
}
