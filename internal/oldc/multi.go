package oldc

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Input is a (generalized) OLDC instance: an oriented graph, color lists
// with per-color defects, and an initial proper m-coloring (e.g. produced
// by the Linial substrate).
type Input struct {
	O          *graph.Oriented
	SpaceSize  int
	Lists      []coloring.NodeList
	InitColors []int
	M          int
}

// Options controls the algorithms.
type Options struct {
	// Params is the parameter profile for the P2 candidate families; the
	// zero value selects cover.Practical().
	Params cover.Params
	// Gap is the generalized-OLDC gap g of Lemma 3.6 (0 = standard OLDC).
	Gap int
	// SkipValidate disables the output validity check (used by ablations
	// that intentionally under-provision parameters).
	SkipValidate bool
}

// Solver is any OLDC solver: Solve (Theorem 1.1) or a wrapper of it, such
// as a csr.Reduce closure. The color space reduction (Theorem 1.2) and the
// list arbdefective driver (Theorem 1.3) take one.
type Solver func(eng *sim.Engine, in Input, opts Options) (coloring.Assignment, sim.Stats, error)

// SolveMulti implements Lemma 3.6: each node restricts its list to the
// defect class i* with maximal Σ(d_v(x)+1)² mass, which turns the instance
// into a single-defect one, and then runs the basic algorithm of Section
// 3.2.3. The output satisfies the gap-g defect bounds; round complexity is
// O(h) = O(log β) and message size O(min{Λ·log|C|, |C|} + log β + log m)
// bits.
func SolveMulti(eng *sim.Engine, in Input, opts Options) (coloring.Assignment, sim.Stats, error) {
	pr := opts.Params.OrPractical()
	o := in.O
	n := o.N()
	h := classCount(o)
	tau := pr.Tau(h, in.SpaceSize, in.M)
	kprime := pr.KPrime(h, tau)

	spec := basicSpec{
		o:          o,
		spaceSize:  in.SpaceSize,
		m:          in.M,
		initColors: in.InitColors,
		lists:      make([][]int, n),
		defect:     make([]int, n),
		gclass:     make([]int, n),
		h:          h,
		gap:        opts.Gap,
		tau:        tau,
		kprime:     kprime,
		pr:         pr,
	}
	for v := 0; v < n; v++ {
		list, d, err := restrictToBestDefectClass(o.OutDegree(v), in.Lists[v], h)
		if err != nil {
			return nil, sim.Stats{}, fmt.Errorf("oldc: node %d: %w", v, err)
		}
		spec.lists[v] = list
		spec.defect[v] = d
		spec.gclass[v] = gammaClass(o.OutDegree(v), d, h)
	}
	phi, stats, err := runBasic(eng, spec)
	if err != nil {
		return nil, stats, err
	}
	asg := coloring.Assignment(phi)
	if !opts.SkipValidate {
		if err := coloring.CheckOLDCGap(o, in.Lists, asg, opts.Gap); err != nil {
			return nil, stats, fmt.Errorf("oldc: SolveMulti output invalid: %w", err)
		}
	}
	return asg, stats, nil
}

// restrictToBestDefectClass partitions the list by defect class
// i = ⌈log₂(2β/(d+1))⌉ and returns the class with maximal Σ(d+1)² mass
// (the proof of Lemma 3.6), using the minimum defect of the class as the
// single defect value.
func restrictToBestDefectClass(beta int, l coloring.NodeList, h int) ([]int, int, error) {
	if l.Len() == 0 {
		return nil, 0, fmt.Errorf("empty color list")
	}
	// Classes are 1..h (gammaClass clamps), so stack tallies suffice; only
	// the winning class's colors are materialized.
	var count, minDef, mass [65]int
	for i := range l.Colors {
		d := l.Defect[i]
		cl := gammaClass(beta, d, h)
		if count[cl] == 0 || d < minDef[cl] {
			minDef[cl] = d
		}
		count[cl]++
		mass[cl] += (d + 1) * (d + 1)
	}
	best := 0
	for cl := 1; cl <= h && cl < len(mass); cl++ {
		if count[cl] > 0 && (best == 0 || mass[cl] > mass[best]) {
			best = cl
		}
	}
	out := make([]int, 0, count[best])
	for i, c := range l.Colors {
		if gammaClass(beta, l.Defect[i], h) == best {
			out = append(out, c)
		}
	}
	return out, minDef[best], nil
}
