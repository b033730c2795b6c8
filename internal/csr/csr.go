// Package csr implements the recursive color space reduction of Section 4
// of the paper (Theorem 1.2 and Corollaries 4.1/4.2): an OLDC solver whose
// complexity depends on the color-space size is boosted by first letting
// every node pick a color *subspace* (itself a small OLDC instance over the
// space of subspaces) and then recursing inside the chosen subspace. Each
// level multiplies the required list slack by κ(p) and costs one invocation
// of the base solver over a space of size p, which is how Corollary 4.2
// shrinks message sizes to O(|C|^{1/r}·B).
package csr

import (
	"fmt"
	"math"

	"repro/internal/coloring"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// Config controls the reduction.
type Config struct {
	// P is the arity of the color-space partition (Theorem 1.2's p).
	P int
	// Kappa is the square-sum slack the base solver needs per level; it is
	// used to split defect budgets between the subspace-selection instance
	// and the recursive instance (ν = 1 in Theorem 1.2's notation).
	Kappa float64
	// Opts is passed to the base solver.
	Opts oldc.Options
}

// Reduce solves the OLDC instance by recursive color space reduction,
// returning the coloring and the summed statistics of all levels.
func Reduce(eng *sim.Engine, in oldc.Input, cfg Config, solve oldc.Solver) (coloring.Assignment, sim.Stats, error) {
	if cfg.P < 2 {
		return nil, sim.Stats{}, fmt.Errorf("csr: partition arity p=%d must be ≥ 2", cfg.P)
	}
	if cfg.Kappa <= 0 {
		cfg.Kappa = 1
	}
	phi, stats, err := reduce(eng, in, cfg, solve, levelsFor(in.SpaceSize, cfg.P))
	if err != nil {
		return nil, stats, err
	}
	if !cfg.Opts.SkipValidate {
		if err := coloring.CheckOLDC(in.O, in.Lists, phi); err != nil {
			return nil, stats, fmt.Errorf("csr: output invalid: %w", err)
		}
	}
	return phi, stats, nil
}

// levelsFor returns k = ⌈log_p |C|⌉.
func levelsFor(spaceSize, p int) int {
	k := 0
	acc := 1
	for acc < spaceSize {
		acc *= p
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

func reduce(eng *sim.Engine, in oldc.Input, cfg Config, solve oldc.Solver, levels int) (coloring.Assignment, sim.Stats, error) {
	var total sim.Stats
	if in.SpaceSize <= cfg.P || levels <= 1 {
		opts := cfg.Opts
		opts.SkipValidate = true // the top-level Reduce validates
		phi, stats, err := solve(eng, in, opts)
		return phi, total.Add(stats), err
	}
	obs.EmitPhase(eng.Tracer(), "csr/level", obs.Attrs{"level": levels, "space": in.SpaceSize, "p": cfg.P})
	n := in.O.N()
	partSize := (in.SpaceSize + cfg.P - 1) / cfg.P
	// Subspace-selection instance: color i ∈ [p] stands for subspace
	// C_i = [i·partSize, (i+1)·partSize); the defect for picking i is
	// β_{v,i} = ⌊√(S_i / κ^{levels−1})⌋ − 1 where S_i is the (d+1)² mass of
	// L_v ∩ C_i (the ν = 1 instantiation of the Theorem 1.2 bookkeeping).
	kappaRec := math.Pow(cfg.Kappa, float64(levels-1))
	auxLists := make([]coloring.NodeList, n)
	subLists := make([][]coloring.NodeList, n) // per node: per subspace restricted list
	for v := 0; v < n; v++ {
		subLists[v] = make([]coloring.NodeList, cfg.P)
		l := in.Lists[v]
		mass := make([]float64, cfg.P)
		for idx, x := range l.Colors {
			i := x / partSize
			sl := &subLists[v][i]
			sl.Colors = append(sl.Colors, x)
			sl.Defect = append(sl.Defect, l.Defect[idx])
			d := l.Defect[idx]
			mass[i] += float64((d + 1) * (d + 1))
		}
		var colors, defs []int
		for i := 0; i < cfg.P; i++ {
			if len(subLists[v][i].Colors) == 0 {
				continue
			}
			delta := int(math.Sqrt(mass[i]/kappaRec)) - 1
			if delta < 0 {
				delta = 0
			}
			colors = append(colors, i)
			defs = append(defs, delta)
		}
		if len(colors) == 0 {
			return nil, total, fmt.Errorf("csr: node %d has an empty list", v)
		}
		auxLists[v] = coloring.NodeList{Colors: colors, Defect: defs}
	}
	auxIn := oldc.Input{O: in.O, SpaceSize: cfg.P, Lists: auxLists, InitColors: in.InitColors, M: in.M}
	auxOpts := cfg.Opts
	auxOpts.SkipValidate = true
	choice, auxStats, err := solve(eng, auxIn, auxOpts)
	total = total.Add(auxStats)
	if err != nil {
		return nil, total, fmt.Errorf("csr: subspace selection failed: %w", err)
	}
	// Recurse: every node continues with its chosen subspace, re-indexed to
	// [0, partSize). Nodes in different subspaces can never conflict, so a
	// single recursive instance over the full graph is equivalent to the p
	// independent ones of the paper.
	recLists := make([]coloring.NodeList, n)
	for v := 0; v < n; v++ {
		i := choice[v]
		sl := subLists[v][i]
		cols := make([]int, len(sl.Colors))
		for j, x := range sl.Colors {
			cols[j] = x - i*partSize
		}
		recLists[v] = coloring.NodeList{Colors: cols, Defect: sl.Defect}
	}
	recIn := oldc.Input{O: in.O, SpaceSize: partSize, Lists: recLists, InitColors: in.InitColors, M: in.M}
	sub, subStats, err := reduce(eng, recIn, cfg, solve, levels-1)
	total = total.Add(subStats)
	if err != nil {
		return nil, total, err
	}
	phi := make(coloring.Assignment, n)
	for v := 0; v < n; v++ {
		phi[v] = sub[v] + choice[v]*partSize
	}
	return phi, total, nil
}
