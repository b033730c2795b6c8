// Package congest assembles the paper's Theorem 1.4: a deterministic
// CONGEST algorithm for (degree+1)-list coloring (and hence standard
// (Δ+1)-coloring) running in √Δ·polylog Δ + O(log* n) rounds with
// O(log n)-bit messages.
//
// The pipeline composes the pieces exactly as in the proof:
//
//  1. Linial substrate: a proper O(Δ²)-coloring in O(log* n) rounds.
//  2. The Theorem 1.1 OLDC algorithm, wrapped in the recursive color space
//     reduction of Corollary 4.2 to shrink message sizes from O(|C|) to
//     O(|C|^{1/r}) bits.
//  3. The Theorem 1.3 driver: arbdefective-class decomposition plus degree
//     halving turn the OLDC solver into a (degree+1)-list coloring
//     algorithm.
package congest

import (
	"fmt"
	"math"

	"repro/internal/arb"
	"repro/internal/coloring"
	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// Config tunes the Theorem 1.4 pipeline.
type Config struct {
	// CSRDepth is Corollary 4.2's r: color spaces are recursively split
	// until sub-spaces have ≈|C|^{1/r} colors. 0 disables the reduction
	// (messages then carry whole lists, the LOCAL-style variant).
	CSRDepth int
	// Bandwidth, when > 0, enforces the CONGEST bound as a hard assertion:
	// any single message above this many bits anywhere in the pipeline
	// fails the run with sim.ErrBandwidth.
	Bandwidth int
	// Tracer, when non-nil, receives the pipeline's phase events and is
	// installed on every engine the pipeline creates (bootstrap, batches,
	// fallback), producing a single trace stream whose per-round totals
	// reconcile with Result.Stats.
	Tracer obs.Tracer
	// Metrics, when non-nil, is installed on every engine the pipeline
	// creates.
	Metrics *obs.Registry
}

// Phase is a named pipeline stage with its execution statistics.
type Phase struct {
	Name  string
	Stats sim.Stats
}

// Result carries the coloring and the execution metrics of all phases.
type Result struct {
	Phi     coloring.Assignment
	Stats   sim.Stats
	Phases  []Phase // bootstrap and driver breakdown
	InitM   int     // size of the bootstrap coloring
	Stages  int     // degree-halving stages of the Theorem 1.3 driver
	Batches int     // OLDC sub-instances solved
}

// DegreePlusOneList solves the (degree+1)-list coloring instance in the
// CONGEST model. The instance must satisfy |L_v| ≥ deg(v)+1 (zero defects)
// or more generally Σ(d_v(x)+1) > deg(v).
func DegreePlusOneList(g *graph.Graph, in *coloring.Instance, cfg Config) (Result, error) {
	var res Result
	// One engine template for the bootstrap and every engine the driver
	// creates.
	engOpts := sim.Options{Bandwidth: cfg.Bandwidth, Tracer: cfg.Tracer, Metrics: cfg.Metrics}
	eng := sim.NewEngineWith(g, engOpts)
	obs.EmitPhase(cfg.Tracer, "congest/linial-bootstrap", obs.Attrs{"n": g.N()})
	init, m, bootStats, err := linial.Proper(eng, graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	res.Stats = res.Stats.Add(bootStats)
	if err != nil {
		return res, fmt.Errorf("congest: bootstrap failed: %w", err)
	}
	res.InitM = m
	res.Phases = append(res.Phases, Phase{Name: "linial-bootstrap", Stats: bootStats})

	solver := oldc.Solver(oldc.Solve)
	if cfg.CSRDepth > 1 {
		r := cfg.CSRDepth
		solver = func(e *sim.Engine, oin oldc.Input, opts oldc.Options) (coloring.Assignment, sim.Stats, error) {
			p := int(math.Ceil(math.Pow(float64(oin.SpaceSize), 1/float64(r))))
			if p < 2 {
				p = 2
			}
			if oin.SpaceSize <= p {
				return oldc.Solve(e, oin, opts)
			}
			return csr.Reduce(e, oin, csr.Config{P: p, Kappa: 1, Opts: opts}, oldc.Solve)
		}
	}

	obs.EmitPhase(cfg.Tracer, "congest/arb-driver", obs.Attrs{"m": m})
	ares, err := arb.SolveListArbdefective(g, in, init, m, solver, arb.Config{Engine: engOpts})
	res.Stats = res.Stats.Add(ares.Stats)
	res.Stages = ares.Stages
	res.Batches = ares.Batches
	res.Phases = append(res.Phases, Phase{Name: "arbdefective-driver", Stats: ares.Stats})
	if err != nil {
		return res, err
	}
	res.Phi = ares.Phi
	// For zero-defect instances the arbdefective output is a proper list
	// coloring; check the stronger property when it applies.
	zeroDefect := true
	for _, l := range in.Lists {
		for _, d := range l.Defect {
			if d != 0 {
				zeroDefect = false
				break
			}
		}
	}
	if zeroDefect {
		if err := coloring.CheckProperList(in, res.Phi); err != nil {
			return res, fmt.Errorf("congest: output not a proper list coloring: %w", err)
		}
	}
	return res, nil
}

// DeltaPlusOne solves the standard (Δ+1)-coloring problem via
// DegreePlusOneList on the instance with L_v = {0..Δ}.
func DeltaPlusOne(g *graph.Graph, cfg Config) (Result, error) {
	return DegreePlusOneList(g, coloring.Standard(g), cfg)
}
