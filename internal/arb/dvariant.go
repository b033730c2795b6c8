package arb

import (
	"fmt"
	"math"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/sim"
)

// SolveViaDefective is the second branch of Theorem 1.3: instead of an
// arbdefective clustering it decomposes the graph with a *plain* defective
// coloring (the Kuhn09 Linial variant), paying the larger class count
// q = Θ(Λ^ν·κ²) the theorem states for algorithms of type 𝒜^D. Within a
// class the defective-coloring guarantee bounds the class degree directly,
// so each class is colored greedily from residual lists in one schedule
// pass — this gives a clean measured contrast between the two Theorem 1.3
// branches (experiment E10 territory). opts configures every simulator
// engine it creates (the stage decompositions and the fallback); the
// stage cap is ⌊log₂ Δ⌋ + 9.
func SolveViaDefective(g *graph.Graph, in *coloring.Instance, initColors []int, m int, opts sim.Options) (Result, error) {
	var res Result
	n := g.N()
	for v := 0; v < n; v++ {
		if in.Lists[v].WeightSum() <= g.Degree(v) {
			return res, fmt.Errorf("arb: node %d violates Σ(d+1) > deg", v)
		}
	}
	phi := coloring.NewAssignment(n)
	colorTime := make([]int, n)
	batch := 0
	av := newResidualCounts(in)
	commit := func(colored []int) {
		batch++
		for _, v := range colored {
			colorTime[v] = batch
		}
	}

	stageDegree := g.MaxDegree()
	maxStages := 8
	for d := stageDegree; d > 0; d /= 2 {
		maxStages++
	}
	for stage := 0; ; stage++ {
		var unc []int
		for v := 0; v < n; v++ {
			if phi[v] == coloring.Unset {
				unc = append(unc, v)
			}
		}
		if len(unc) == 0 {
			break
		}
		sub, orig := g.InducedSubgraph(unc)
		subDelta := sub.MaxDegree()
		if subDelta == 0 || stage >= maxStages {
			// Finish with the deterministic fallback.
			st, err := fallbackSchedule(g, in, initColors, m, phi, av, colorTime, &batch, opts)
			res.Stats = res.Stats.Add(st)
			if err != nil {
				return res, err
			}
			break
		}
		res.Stages++
		if subDelta > stageDegree {
			stageDegree = subDelta
		}
		// δ-defective coloring of the uncolored subgraph with
		// δ ≈ Δ/(class budget); Kuhn09 gives O((Δ·D/(δ+1))²) classes.
		delta := int(math.Sqrt(float64(stageDegree))) // class degree target
		if delta < 1 {
			delta = 1
		}
		eng := sim.NewEngineWith(sub, opts)
		classes, q1, st, err := linial.Defective(eng, graph.OrientSymmetric(sub), restrict(initColors, orig), m, delta)
		res.Stats = res.Stats.Add(st)
		if err != nil {
			return res, fmt.Errorf("arb: defective decomposition: %w", err)
		}
		threshold := stageDegree / 2
		// Iterate the q1 defective classes; members with enough uncolored
		// neighbors pick residual colors. Members are processed in id
		// order, which corresponds to a δ+1-slot distributed schedule (a
		// proper coloring of the ≤δ-degree induced class subgraph yields
		// δ+1 independent slots); the round accounting charges δ+4 per
		// non-empty class for that sub-schedule.
		for class := 0; class < q1; class++ {
			var members []int
			for si, v := range orig {
				if classes[si] != class || phi[v] != coloring.Unset {
					continue
				}
				uncN := 0
				for _, u := range g.Neighbors(v) {
					if phi[u] == coloring.Unset {
						uncN++
					}
				}
				if uncN >= threshold {
					members = append(members, v)
				}
			}
			if len(members) == 0 {
				continue
			}
			// Orienting toward earlier-colored nodes (ties toward smaller
			// ids, matching the processing order) means a node's arbdefect
			// at color x is exactly the count of already-colored neighbors
			// holding x, so Σ(d+1) > deg guarantees a pick by pigeonhole.
			// Each pick is recorded at once, so a member's counters include
			// the members colored before it in this class.
			var colored []int
			for _, v := range members {
				x, ok := av.pick(v)
				if !ok {
					return res, fmt.Errorf("arb: pigeonhole failed at node %d", v)
				}
				phi[v] = x
				av.record(g, phi, v)
				colored = append(colored, v)
			}
			res.Stats.Rounds += delta + 4
			res.Batches++
			commit(colored)
		}
		stageDegree = threshold
		if stageDegree < 1 {
			stageDegree = 1
		}
	}
	orient := graph.Orient(g, func(u, v int) bool {
		if colorTime[u] != colorTime[v] {
			return colorTime[u] > colorTime[v]
		}
		return u > v
	})
	if err := coloring.CheckArb(in, phi, orient); err != nil {
		return res, fmt.Errorf("arb: D-variant output invalid: %w", err)
	}
	res.Phi = phi
	res.Orient = orient
	return res, nil
}
