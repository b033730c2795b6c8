package bench

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"time"

	"repro/internal/arb"
	"repro/internal/baseline"
	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/congest"
	"repro/internal/cover"
	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/mis"
	"repro/internal/oldc"
	"repro/internal/seq"
	"repro/internal/sim"
)

// claimsCases is the paper's claims suite: its theorem statements as the
// experiments E1–E13 of DESIGN.md §4, one row per point named E<k>/<point>.
// A row checking a theorem bound records it as the count <metric>_bound
// and folds it into the verdict; any other row is valid if its output is.
func claimsCases(quick bool) []benchCase {
	var cases []benchCase
	for _, exp := range []func([]benchCase, bool) []benchCase{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13} {
		cases = exp(cases, quick)
	}
	return cases
}

// sweep returns the points full, or its first k under -quick.
func sweep(quick bool, full []int, k int) []int {
	if quick {
		return full[:k]
	}
	return full
}

// claimOp runs a claims row's algorithms, calls stop as soon as they
// finish so that only they are timed, and judges their output. An error
// aborts the suite, so the result that comes with one is never read.
type claimOp func(stop func()) (result, error)

// claim is a claims row: build draws the instance (graph, Linial
// bootstrap, lists) and returns the op, which a build error discards.
func claim(name string, params map[string]any, build func() (claimOp, error)) benchCase {
	return benchCase{name: name, params: params, build: func() (benchOp, error) {
		op, err := build()
		if err != nil {
			return nil, err
		}
		return func() (result, error) {
			var el time.Duration
			start := time.Now()
			r, err := op(func() { el = time.Since(start) })
			r.timings = map[string]time.Duration{"solve": el}
			return r, err
		}, nil
	}}
}

// workload is a Theorem 1.1 instance: a random β-regular graph on n nodes
// oriented by id, a Linial initial coloring, and square-sum lists over
// [space] with slack κ and defects in [minD, maxD], drawn from seed.
type workload struct {
	beta, n, space int
	kappa          float64
	minD, maxD     int
	seed           int64
}

func (w workload) params() map[string]any {
	return map[string]any{"beta": w.beta, "n": w.n, "space": w.space, "kappa": w.kappa,
		"min_defect": w.minD, "max_defect": w.maxD, "seed": w.seed}
}

// build draws w's instance on the engine the row's solves then reuse.
func (w workload) build() (*sim.Engine, oldc.Input, error) {
	g := graph.RandomRegular(w.n, w.beta, w.seed)
	eng, init, m, err := bootstrap(g)
	if err != nil {
		return nil, oldc.Input{}, err
	}
	o := graph.OrientByID(g)
	inst, err := coloring.SquareSumOrientedRange(o, w.space, w.kappa, w.minD, w.maxD, w.seed)
	if err != nil {
		return nil, oldc.Input{}, err
	}
	return eng, oldc.Input{O: o, SpaceSize: w.space, Lists: inst.Lists, InitColors: init, M: m}, nil
}

// bootstrap computes g's Linial coloring from the ids on a fresh engine.
func bootstrap(g *graph.Graph) (*sim.Engine, []int, int, error) {
	eng := sim.NewEngine(g)
	init, m, _, err := linial.Proper(eng, graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	return eng, init, m, err
}

// viaCSR solves through the color space reduction of Theorem 1.2 with
// arity p and slack κ, every level by oldc.Solve.
func viaCSR(p int, kappa float64) oldc.Solver {
	return func(eng *sim.Engine, in oldc.Input, _ oldc.Options) (coloring.Assignment, sim.Stats, error) {
		return csr.Reduce(eng, in, csr.Config{P: p, Kappa: kappa}, oldc.Solve)
	}
}

// gapViolations counts the nodes colored off their list or with more
// out-neighbors within g of their color than its defect allows.
func gapViolations(in oldc.Input, phi coloring.Assignment, g int) int {
	bad := 0
	for v := range phi {
		d, ok := in.Lists[v].DefectOf(phi[v])
		for _, u := range in.O.Out(v) {
			if diff := phi[u] - phi[v]; -g <= diff && diff <= g {
				d--
			}
		}
		if !ok || d < 0 {
			bad++
		}
	}
	return bad
}

// oldcRow is the build-and-solve shape E1, E2, E4, E10 (a)–(c) and E12
// share: one solve of w's instance, counting its stats and gap-opts.Gap
// violations. It is valid when there are none and check, when set, holds
// for the bound counts it adds.
type oldcRow struct {
	name  string
	w     workload
	extra map[string]any // params beyond the workload's
	solve oldc.Solver
	opts  oldc.Options
	check func(in oldc.Input, st sim.Stats, counts map[string]any) bool
	doc   bool // write the document ldc-verify re-checks
}

func (r oldcRow) benchCase() benchCase {
	params := r.w.params()
	maps.Copy(params, r.extra)
	return claim(r.name, params, func() (claimOp, error) {
		eng, in, err := r.w.build()
		return func(stop func()) (result, error) {
			phi, st, err := r.solve(eng, in, r.opts)
			stop()
			if err != nil {
				return result{}, err
			}
			viol := gapViolations(in, phi, r.opts.Gap)
			counts := solveCounts(st, phi)
			counts["violations"] = viol
			ok := r.check == nil || r.check(in, st, counts)
			res := result{counts: counts, valid: ok && viol == 0}
			if r.doc {
				res.doc = func() verifyDoc { return listDoc("oldc-by-id", in.O.Graph(), in.SpaceSize, in.Lists, phi) }
			}
			return res, nil
		}, err
	})
}

// e1 — Theorem 1.1 / Lemma 3.8: OLDC in O(log β) rounds; the schedule
// takes exactly 3⌈log₂ β⌉.
func e1(cases []benchCase, quick bool) []benchCase {
	for _, beta := range sweep(quick, []int{4, 8, 16, 32, 64}, 4) {
		cases = append(cases, oldcRow{
			name: fmt.Sprintf("E1/beta=%d", beta), w: workload{beta, 8 * beta, 1 << 13, 5.0, 1, 3, int64(beta)},
			solve: oldc.Solve, doc: true,
			check: func(_ oldc.Input, st sim.Stats, counts map[string]any) bool {
				counts["rounds_bound"] = 3 * bitio.WidthFor(beta)
				return st.Rounds == 3*bitio.WidthFor(beta)
			},
		}.benchCase())
	}
	return cases
}

// e2 — Theorem 1.1: messages of O(min{|C|, Λ·log|C|} + log β + log m)
// bits, for the longest list Λ and the bootstrap's m colors. The constant
// is pinned at 1.1; the measured ratio is 1.00–1.08.
func e2(cases []benchCase, quick bool) []benchCase {
	for _, beta := range sweep(quick, []int{4, 8, 16, 32, 64}, 3) {
		cases = append(cases, oldcRow{
			name: fmt.Sprintf("E2/beta=%d", beta), w: workload{beta, 8 * beta, 1 << 12, 5.0, 1, 3, int64(beta) + 100},
			solve: oldc.Solve, doc: true,
			check: func(in oldc.Input, st sim.Stats, counts map[string]any) bool {
				lambda := 0
				for _, l := range in.Lists {
					lambda = max(lambda, l.Len())
				}
				c := in.SpaceSize
				bound := (min(c, lambda*bitio.WidthFor(c)) + bitio.WidthFor(beta) + bitio.WidthFor(in.M)) * 11 / 10
				counts["lambda"], counts["m"], counts["max_msg_bits_bound"] = lambda, in.M, bound
				return st.MaxMessageBits <= bound
			},
		}.benchCase())
	}
	return cases
}

// e3 — Corollary 4.2: depth-r reduction with arity p = ⌈|C|^{1/r}⌉ cuts
// messages to O(|C|^{1/r}·B) for ×r rounds. The claim spans the sweep, so
// one row holds a list per count: rounds(r) = r·rounds(1), and
// max_msg_bits strictly fall in r. Its document is the deepest coloring.
func e3(cases []benchCase, quick bool) []benchCase {
	w := workload{8, 64, 1 << 12, 14.0, 1, 3, 777}
	depths := sweep(quick, []int{1, 2, 3, 4}, 3)
	ps := make([]int, len(depths))
	for i, r := range depths {
		ps[i] = int(math.Ceil(math.Pow(float64(w.space), 1/float64(r))))
	}
	params := w.params()
	params["r"], params["p"] = depths, ps
	return append(cases, claim("E3/depths", params, func() (claimOp, error) {
		eng, in, err := w.build()
		return func(stop func()) (result, error) {
			var phis []coloring.Assignment
			var rounds, bits, bounds []int
			for i, r := range depths {
				solve := oldc.Solver(oldc.Solve)
				if r > 1 {
					solve = viaCSR(ps[i], 1.1)
				}
				phi, st, err := solve(eng, in, oldc.Options{})
				if err != nil {
					return result{}, err
				}
				phis, rounds, bits = append(phis, phi), append(rounds, st.Rounds), append(bits, st.MaxMessageBits)
			}
			stop()
			valid := true
			for i, r := range depths {
				bounds = append(bounds, r*rounds[0])
				valid = valid && gapViolations(in, phis[i], 0) == 0 && rounds[i] == bounds[i] && (i == 0 || bits[i] < bits[i-1])
			}
			return result{
				counts: map[string]any{"rounds": rounds, "rounds_bound": bounds, "max_msg_bits": bits},
				valid:  valid,
				doc: func() verifyDoc {
					return listDoc("oldc-by-id", in.O.Graph(), in.SpaceSize, in.Lists, phis[len(phis)-1])
				},
			}, nil
		}, err
	}))
}

// e4 — Corollary 4.1: arity p costs k = ⌈log_p|C|⌉ solver levels. The
// params carry k and the k·(p+2) cost of a poly(Λ)-round solver, least at
// an interior p; the O(log β) solver here pays only the ×k. Measured only.
func e4(cases []benchCase, quick bool) []benchCase {
	w := workload{6, 48, 1 << 12, 16.0, 1, 2, 4242}
	for _, p := range sweep(quick, []int{2, 4, 8, 16, 64, 256, 1024}, 3) {
		k := 1
		for acc := p; acc < w.space; acc *= p {
			k++
		}
		cases = append(cases, oldcRow{
			name: fmt.Sprintf("E4/p=%d", p), w: w, extra: map[string]any{"p": p, "levels": k, "model_rounds": k * (p + 2)},
			solve: viaCSR(p, 1.05), doc: true,
		}.benchCase())
	}
	return cases
}

// e5 — Theorem 1.3: d-arbdefective ⌊Δ/(d+1)+1⌋-coloring in
// O(√(Δ/(d+1))·polylog) rounds, against the Θ(Δ)-round exact baseline
// [BBKO21] and the fast [BEG18] bootstrap (arbdefect O(Δ/q)). Measured only.
func e5(cases []benchCase, quick bool) []benchCase {
	for _, delta := range sweep(quick, []int{16, 24, 40}, 1) {
		for _, d := range sweep(quick, []int{0, 1, 3, 7}, 3) {
			n, q := 8*delta, delta/(d+1)+1
			params := map[string]any{"delta": delta, "n": n, "d": d, "q": q, "seed": 51}
			cases = append(cases, claim(fmt.Sprintf("E5/delta=%d/d=%d", delta, d), params, func() (claimOp, error) {
				g := graph.RandomRegular(n, delta, 51)
				_, init, m, err := bootstrap(g)
				// Every node lists all q colors with defect d: Σ(d+1) = q(d+1) > Δ.
				in := coloring.UniformDefective(g, q, q, d, 0)
				return func(stop func()) (result, error) {
					ours, err1 := arb.SolveListArbdefective(g, in, init, m, oldc.Solve, arb.Config{})
					_, _, exact, err2 := baseline.ExactArbdefective(sim.NewEngine(g), g, q, d)
					_, relaxed, err3 := linial.Arbdefective(sim.NewEngine(g), g, linial.IDs(n), n, q)
					stop()
					err := errors.Join(err1, err2, err3)
					return result{
						counts: map[string]any{"rounds": ours.Stats.Rounds, "exact_rounds": exact.Rounds, "relaxed_rounds": relaxed.Rounds},
						valid:  err == nil && coloring.CheckArb(in, ours.Phi, ours.Orient) == nil,
					}, err
				}, err
			}))
		}
	}
	return cases
}

// e6 — Theorem 1.4: CONGEST (Δ+1)-coloring in √Δ·polylog Δ + O(log* n)
// rounds with max_msg_bits ≤ 7⌈log₂ n⌉, next to the r=2 pipeline, the
// [BEG18], [Lin87] and [BE09] baselines, Luby and the GK21 formula.
func e6(cases []benchCase, quick bool) []benchCase {
	for _, delta := range sweep(quick, []int{6, 12, 20, 32, 48}, 2) {
		n := 8 * delta
		params := map[string]any{"delta": delta, "n": n, "seed": 7 * delta, "gk21_model_rounds": baseline.GK21Rounds(delta, n)}
		cases = append(cases, claim(fmt.Sprintf("E6/delta=%d", delta), params, func() (claimOp, error) {
			g := graph.RandomRegular(n, delta, int64(delta)*7)
			return func(stop func()) (result, error) {
				ours, err1 := congest.DeltaPlusOne(g, congest.Config{})
				csr2, err2 := congest.DeltaPlusOne(g, congest.Config{CSRDepth: 2})
				_, lin, err3 := baseline.LinearDeltaPlusOne(sim.NewEngine(g), g)
				_, slow, err4 := baseline.SlowFold(sim.NewEngine(g), g)
				_, dc, err5 := baseline.DivideConquer(g)
				_, luby, err6 := baseline.Luby(sim.NewEngine(g), g, 99)
				stop()
				err := errors.Join(err1, err2, err3, err4, err5, err6)
				bound := 7 * bitio.WidthFor(n)
				return result{
					counts: map[string]any{"rounds": ours.Stats.Rounds, "max_msg_bits": ours.Stats.MaxMessageBits, "max_msg_bits_bound": bound,
						"csr2_rounds": csr2.Stats.Rounds, "csr2_max_msg_bits": csr2.Stats.MaxMessageBits, "linear_rounds": lin.Rounds,
						"slow_rounds": slow.Rounds, "dc_rounds": dc.Rounds, "luby_rounds": luby.Rounds},
					valid: err == nil && coloring.CheckProper(g, ours.Phi, delta+1) == nil &&
						coloring.CheckProper(g, csr2.Phi, delta+1) == nil && ours.Stats.MaxMessageBits <= bound,
					doc: func() verifyDoc { return properDoc(g, delta+1, ours.Phi) },
				}, err
			}, nil
		}))
	}
	return cases
}

// existence is an Appendix A row: solve runs and validates a sequential
// algorithm. The outcome, "solved", "violates (k)" or the error, must be
// "solved" exactly when build says the instance meets condition (k).
// Only condition (1) outputs, list defective colorings, get a document.
func existence(name string, params map[string]any, k int, build func() (*coloring.Instance, bool),
	solve func(*coloring.Instance) (coloring.Assignment, error)) benchCase {
	violated := fmt.Sprintf("violates (%d)", k)
	return claim(name, params, func() (claimOp, error) {
		in, meets := build()
		expected := violated
		if meets {
			expected = "solved"
		}
		return func(stop func()) (result, error) {
			phi, err := solve(in)
			stop()
			outcome := "solved"
			if errors.Is(err, seq.ErrCondition) {
				outcome = violated
			} else if err != nil {
				outcome = err.Error()
			}
			r := result{
				counts: map[string]any{"condition_1": coloring.CondExistsLDC(in), "condition_2": coloring.CondExistsArb(in),
					"expected": expected, "outcome": outcome},
				valid: outcome == expected,
			}
			if err == nil && k == 1 {
				r.doc = func() verifyDoc { return listDoc("ldc", in.G, in.SpaceSize, in.Lists, phi) }
			}
			return r, nil
		}, nil
	})
}

// e7 — Lemma A.1: a list defective coloring exists when Σ(d+1) > deg(v)
// (condition (1)), tightly on cliques: slack 0 must violate (1) and
// slack 1 solve. The random instances that meet (1) must solve.
func e7(cases []benchCase, _ bool) []benchCase {
	solve := func(in *coloring.Instance) (coloring.Assignment, error) {
		phi, err := seq.ListDefective(in)
		if err == nil {
			err = coloring.CheckLDC(in, phi)
		}
		return phi, err
	}
	for _, c := range []struct{ n, d, slack int }{{8, 1, 0}, {8, 1, 1}, {12, 2, 0}, {12, 2, 1}} {
		cases = append(cases, existence(fmt.Sprintf("E7/clique-n=%d-d=%d-slack=%d", c.n, c.d, c.slack),
			map[string]any{"n": c.n, "defect": c.d, "slack": c.slack}, 1,
			func() (*coloring.Instance, bool) { return coloring.CliqueUniform(c.n, c.d, c.n-1+c.slack), c.slack > 0 }, solve))
	}
	for seed := range int64(3) {
		cases = append(cases, existence(fmt.Sprintf("E7/gnp-seed=%d", seed),
			map[string]any{"n": 40, "p": 0.25, "space": 128, "defect": 1, "seed": seed}, 1,
			func() (*coloring.Instance, bool) {
				g := graph.GNP(40, 0.25, seed)
				in := coloring.UniformDefective(g, 128, g.MaxDegree()/2+2, 1, seed)
				return in, coloring.CondExistsLDC(in)
			}, solve))
	}
	return cases
}

// e8 — Lemma A.2: a list arbdefective coloring exists when
// Σ(2d+1) > deg(v) (condition (2)), a factor-2 gain over Lemma A.1: every
// instance here meets (2) but not (1), and must solve.
func e8(cases []benchCase, _ bool) []benchCase {
	solve := func(in *coloring.Instance) (coloring.Assignment, error) {
		phi, orient, err := seq.ListArbdefective(in)
		if err == nil {
			err = coloring.CheckArb(in, phi, orient)
		}
		return phi, err
	}
	// K9 with one color of defect 4: Σ(2d+1) = 9 > 8 but Σ(d+1) = 5 ≤ 8.
	cases = append(cases, existence("E8/clique-n=9-d=4", map[string]any{"n": 9, "defect": 4}, 2,
		func() (*coloring.Instance, bool) {
			in := coloring.CliqueUniform(9, 4, 5)
			return in, coloring.CondExistsArb(in)
		}, solve))
	for seed := range int64(3) {
		cases = append(cases, existence(fmt.Sprintf("E8/gnp-seed=%d", seed),
			map[string]any{"n": 36, "p": 0.3, "space": 64, "defect": 1, "seed": seed}, 2,
			func() (*coloring.Instance, bool) {
				g := graph.GNP(36, 0.3, seed)
				in := coloring.UniformDefective(g, 64, g.MaxDegree()/3+2, 1, seed)
				return in, coloring.CondExistsArb(in)
			}, solve))
	}
	return cases
}

// e9 — the Linial substrate: proper colorings of 6-regular graphs with at
// most q² colors, q the smallest prime ≥ 2β+1, in ≤ log*₂ n rounds
// [Lin87]; d-defective ones at β = 12 [Kuh09], measured only.
func e9(cases []benchCase, quick bool) []benchCase {
	const beta = 6
	q := linial.SmallestPrimeAtLeast(2*beta + 1)
	for _, n := range sweep(quick, []int{64, 512, 4096, 32768}, 2) {
		logStar := 0
		for x := float64(n); x > 1; x = math.Log2(x) {
			logStar++
		}
		cases = append(cases, claim(fmt.Sprintf("E9/proper-n=%d", n), map[string]any{"n": n, "beta": beta, "seed": n}, func() (claimOp, error) {
			g := graph.RandomRegular(n, beta, int64(n))
			eng, o := sim.NewEngine(g), graph.OrientSymmetric(g)
			return func(stop func()) (result, error) {
				phi, colors, st, err := linial.Proper(eng, o, linial.IDs(n), n)
				stop()
				return result{
					counts: map[string]any{"colors": colors, "colors_bound": q * q, "rounds": st.Rounds, "rounds_bound": logStar},
					valid:  err == nil && coloring.CheckProper(g, phi, colors) == nil && colors <= q*q && st.Rounds <= logStar,
					doc:    func() verifyDoc { return properDoc(g, colors, phi) },
				}, err
			}, nil
		}))
	}
	for _, d := range sweep(quick, []int{1, 3, 5, 8}, 2) {
		cases = append(cases, claim(fmt.Sprintf("E9/defective-d=%d", d), map[string]any{"n": 1024, "beta": 12, "d": d, "seed": 2}, func() (claimOp, error) {
			g := graph.RandomRegular(1024, 12, 2)
			eng, o := sim.NewEngine(g), graph.OrientSymmetric(g)
			return func(stop func()) (result, error) {
				phi, colors, st, err := linial.Defective(eng, o, linial.IDs(1024), 1024, d)
				stop()
				return result{
					counts: map[string]any{"colors": colors, "rounds": st.Rounds},
					valid:  err == nil && coloring.CheckDefective(g, phi, colors, d) == nil,
				}, err
			}, nil
		}))
	}
	return cases
}

// e10 — ablations of DESIGN.md §5: (a) the gap g, (b) Lemma 3.6 without
// γ-class selection against Lemma 3.8, (c) the family size k′, and (d)
// the Theorem 1.3 O-branch (arbdefective clustering) against the
// D-branch (defective). Measured only: valid means no violations.
func e10(cases []benchCase, quick bool) []benchCase {
	for _, g := range sweep(quick, []int{0, 1, 2, 4}, 2) {
		cases = append(cases, oldcRow{
			name: fmt.Sprintf("E10/gap=%d", g), w: workload{8, 64, 1 << 13, 8.0, 1, 2, 31}, extra: map[string]any{"gap": g},
			solve: oldc.SolveMulti, opts: oldc.Options{Gap: g, SkipValidate: true},
		}.benchCase())
	}
	for _, l := range []struct {
		lemma string
		solve oldc.Solver
	}{{"3.6", oldc.SolveMulti}, {"3.8", oldc.Solve}} {
		cases = append(cases, oldcRow{
			name: "E10/lemma=" + l.lemma, w: workload{16, 128, 1 << 13, 5.0, 1, 3, 37}, extra: map[string]any{"lemma": l.lemma},
			solve: l.solve, opts: oldc.Options{SkipValidate: true},
		}.benchCase())
	}
	for _, kp := range sweep(quick, []int{2, 4, 8, 16, 32}, 2) {
		pr := cover.Practical()
		pr.KPrimeFloor, pr.KPrimeCap = kp, kp
		cases = append(cases, oldcRow{
			name: fmt.Sprintf("E10/kprime=%d", kp), w: workload{8, 64, 1 << 13, 5.0, 1, 2, 41}, extra: map[string]any{"kprime": kp},
			solve: oldc.Solve, opts: oldc.Options{Params: pr, SkipValidate: true},
		}.benchCase())
	}
	for _, branch := range []string{"O", "D"} {
		params := map[string]any{"branch": branch, "n": 96, "delta": 12, "seed": 47, "space": 48, "list_seed": 49}
		cases = append(cases, claim("E10/branch="+branch, params, func() (claimOp, error) {
			g := graph.RandomRegular(96, 12, 47)
			_, init, m, err := bootstrap(g)
			in := coloring.DegreePlusOne(g, 4*g.MaxDegree(), 49)
			return func(stop func()) (result, error) {
				var res arb.Result
				var err error
				if branch == "O" {
					res, err = arb.SolveListArbdefective(g, in, init, m, oldc.Solve, arb.Config{})
				} else {
					res, err = arb.SolveViaDefective(g, in, init, m, sim.Options{})
				}
				stop()
				viol := 0
				if err != nil || coloring.CheckProperList(in, res.Phi) != nil {
					viol = 1
				}
				return result{
					counts: map[string]any{"rounds": res.Stats.Rounds, "max_msg_bits": res.Stats.MaxMessageBits, "violations": viol},
					valid:  viol == 0,
				}, err
			}, err
		}))
	}
	return cases
}

// e11 — Theorems 1.3/1.4: at fixed Δ = 8 the n-dependence of the
// (Δ+1)-coloring pipeline is only the additive O(log* n) bootstrap.
// Measured only.
func e11(cases []benchCase, quick bool) []benchCase {
	for _, n := range sweep(quick, []int{64, 256, 1024, 4096}, 2) {
		cases = append(cases, claim(fmt.Sprintf("E11/n=%d", n), map[string]any{"delta": 8, "n": n, "seed": n}, func() (claimOp, error) {
			g := graph.RandomRegular(n, 8, int64(n))
			return func(stop func()) (result, error) {
				res, err := congest.DeltaPlusOne(g, congest.Config{})
				stop()
				if err != nil {
					return result{}, err
				}
				return result{
					// Phases are the Linial bootstrap and the Theorem 1.3 driver.
					counts: map[string]any{"rounds": res.Stats.Rounds, "bootstrap_rounds": res.Phases[0].Stats.Rounds,
						"driver_rounds": res.Phases[1].Stats.Rounds, "max_msg_bits": res.Stats.MaxMessageBits},
					valid: coloring.CheckProper(g, res.Phi, g.MaxDegree()+1) == nil,
					doc:   func() verifyDoc { return properDoc(g, g.MaxDegree()+1, res.Phi) },
				}, nil
			}, nil
		}))
	}
	return cases
}

// e12 — Appendix C: the color space reduction with p = |C|^{1/r} shrinks
// every local enumeration to the subspace; the same instance solved
// directly and at depths 2 and 3, timing the solve alone. Measured only.
func e12(cases []benchCase, _ bool) []benchCase {
	for _, mode := range []struct {
		name  string
		p     int
		solve oldc.Solver
	}{{"direct", 1 << 12, oldc.Solve}, {"csr-r=2", 64, viaCSR(64, 1.1)}, {"csr-r=3", 16, viaCSR(16, 1.1)}} {
		cases = append(cases, oldcRow{
			name: "E12/" + mode.name, w: workload{8, 64, 1 << 12, 14.0, 1, 3, 1234}, extra: map[string]any{"p": mode.p},
			solve: mode.solve, doc: true,
		}.benchCase())
	}
	return cases
}

// e13 — line graphs, the θ(L) ≤ 2 family the reduction targets: the
// pipeline on L(G) edge-colors G with at most 2Δ−1 colors, and coloring →
// MIS (a maximal matching of G) costs +palette rounds.
func e13(cases []benchCase, quick bool) []benchCase {
	for _, d := range sweep(quick, []int{4, 6, 8}, 1) {
		cases = append(cases, claim(fmt.Sprintf("E13/delta=%d", d), map[string]any{"delta": d, "n": 16 * d, "seed": 13 * d}, func() (claimOp, error) {
			g := graph.RandomRegular(16*d, d, int64(d)*13)
			lg, _ := g.LineGraph()
			theta, err := lg.NeighborhoodIndependence()
			return func(stop func()) (result, error) {
				res, err := congest.DeltaPlusOne(lg, congest.Config{})
				if err != nil {
					return result{}, err
				}
				palette := lg.MaxDegree() + 1
				set, misStats, err := mis.FromColoring(sim.NewEngine(lg), lg, res.Phi, palette)
				stop()
				colors := coloring.CountColors(res.Phi)
				return result{
					counts: map[string]any{"edges": g.M(), "theta": theta, "theta_bound": 2, "colors": colors,
						"colors_bound": 2*d - 1, "rounds": res.Stats.Rounds, "mis_rounds": misStats.Rounds},
					valid: err == nil && theta <= 2 && colors <= 2*d-1 && coloring.CheckProper(lg, res.Phi, palette) == nil &&
						mis.Check(lg, set) == nil,
					doc: func() verifyDoc { return properDoc(lg, palette, res.Phi) },
				}, err
			}, err
		}))
	}
	return cases
}
