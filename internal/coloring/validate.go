package coloring

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// CheckLDC validates a (complete) list defective coloring of the
// undirected instance: every node v must be colored from its list with at
// most d_v(φ(v)) equally-colored neighbors.
func CheckLDC(in *Instance, phi Assignment) error {
	if len(phi) != in.G.N() {
		return fmt.Errorf("coloring: assignment for %d nodes, graph has %d", len(phi), in.G.N())
	}
	for v := 0; v < in.G.N(); v++ {
		if phi[v] == Unset {
			return fmt.Errorf("coloring: node %d uncolored", v)
		}
		d, ok := in.Lists[v].DefectOf(phi[v])
		if !ok {
			return fmt.Errorf("coloring: node %d uses color %d not on its list", v, phi[v])
		}
		same := 0
		for _, u := range in.G.Neighbors(v) {
			if phi[u] == phi[v] {
				same++
			}
		}
		if same > d {
			return fmt.Errorf("coloring: node %d (color %d) has %d same-colored neighbors, defect allows %d",
				v, phi[v], same, d)
		}
	}
	return nil
}

// CheckOLDC validates an oriented list defective coloring: defects only
// count out-neighbors of the orientation.
func CheckOLDC(o *graph.Oriented, lists []NodeList, phi Assignment) error {
	if len(phi) != o.N() {
		return fmt.Errorf("coloring: assignment for %d nodes, graph has %d", len(phi), o.N())
	}
	for v := 0; v < o.N(); v++ {
		if phi[v] == Unset {
			return fmt.Errorf("coloring: node %d uncolored", v)
		}
		d, ok := lists[v].DefectOf(phi[v])
		if !ok {
			return fmt.Errorf("coloring: node %d uses color %d not on its list", v, phi[v])
		}
		same := 0
		for _, u := range o.Out(v) {
			if phi[u] == phi[v] {
				same++
			}
		}
		if same > d {
			return fmt.Errorf("coloring: node %d (color %d) has %d same-colored out-neighbors, defect allows %d",
				v, phi[v], same, d)
		}
	}
	return nil
}

// CheckOLDCGap validates the generalized OLDC output of Lemma 3.6: at most
// d_v(φ(v)) out-neighbors w with |φ(w) − φ(v)| ≤ g.
func CheckOLDCGap(o *graph.Oriented, lists []NodeList, phi Assignment, g int) error {
	for v := 0; v < o.N(); v++ {
		if phi[v] == Unset {
			return fmt.Errorf("coloring: node %d uncolored", v)
		}
		d, ok := lists[v].DefectOf(phi[v])
		if !ok {
			return fmt.Errorf("coloring: node %d uses color %d not on its list", v, phi[v])
		}
		close := 0
		for _, u := range o.Out(v) {
			if abs(phi[u]-phi[v]) <= g {
				close++
			}
		}
		if close > d {
			return fmt.Errorf("coloring: node %d (color %d) has %d out-neighbors within gap %d, defect allows %d",
				v, phi[v], close, g, d)
		}
	}
	return nil
}

// CheckArb validates a list arbdefective coloring: the coloring together
// with the output orientation must be a valid OLDC of the instance's graph.
func CheckArb(in *Instance, phi Assignment, orient *graph.Oriented) error {
	g := orient.Graph()
	if g != in.G && (g.N() != in.G.N() || g.M() != in.G.M()) {
		return fmt.Errorf("coloring: orientation over %d nodes and %d edges, instance has %d and %d",
			g.N(), g.M(), in.G.N(), in.G.M())
	}
	if err := orient.Validate(); err != nil {
		return err
	}
	if g != in.G {
		// A structurally equal graph from a subgraph workflow is allowed:
		// Validate put every arc on an edge of g, so an arc on every edge
		// of in.G, with the edge counts equal, makes the edge sets equal.
		var err error
		in.G.ForEachEdge(func(u, v int) {
			if err == nil && !orient.HasArc(u, v) && !orient.HasArc(v, u) {
				err = fmt.Errorf("coloring: instance edge {%d,%d} has no arc in the orientation", u, v)
			}
		})
		if err != nil {
			return err
		}
	}
	return CheckOLDC(orient, in.Lists, phi)
}

// CheckProperList validates a proper list coloring (all defects must be
// satisfied with zero same-colored neighbors regardless of listed defects).
func CheckProperList(in *Instance, phi Assignment) error {
	for v := 0; v < in.G.N(); v++ {
		if phi[v] == Unset {
			return fmt.Errorf("coloring: node %d uncolored", v)
		}
		if _, ok := in.Lists[v].DefectOf(phi[v]); !ok {
			return fmt.Errorf("coloring: node %d uses color %d not on its list", v, phi[v])
		}
		for _, u := range in.G.Neighbors(v) {
			if phi[u] == phi[v] {
				return fmt.Errorf("coloring: monochromatic edge {%d,%d} with color %d", v, u, phi[v])
			}
		}
	}
	return nil
}

// CheckProper validates a proper coloring against an explicit palette
// bound: colors in [0, numColors), no monochromatic edge.
func CheckProper(g *graph.Graph, phi Assignment, numColors int) error {
	for v := 0; v < g.N(); v++ {
		if phi[v] < 0 || phi[v] >= numColors {
			return fmt.Errorf("coloring: node %d has color %d outside [0,%d)", v, phi[v], numColors)
		}
		for _, u := range g.Neighbors(v) {
			if phi[u] == phi[v] {
				return fmt.Errorf("coloring: monochromatic edge {%d,%d} with color %d", v, u, phi[v])
			}
		}
	}
	return nil
}

// CheckDefective validates a d-defective coloring with colors in
// [0, numColors): every node has at most d same-colored neighbors.
func CheckDefective(g *graph.Graph, phi Assignment, numColors, d int) error {
	for v := 0; v < g.N(); v++ {
		if phi[v] < 0 || phi[v] >= numColors {
			return fmt.Errorf("coloring: node %d has color %d outside [0,%d)", v, phi[v], numColors)
		}
		same := 0
		for _, u := range g.Neighbors(v) {
			if phi[u] == phi[v] {
				same++
			}
		}
		if same > d {
			return fmt.Errorf("coloring: node %d has defect %d > %d", v, same, d)
		}
	}
	return nil
}

// CheckOrientedDefective validates a d-defective coloring where defects
// count out-neighbors only.
func CheckOrientedDefective(o *graph.Oriented, phi Assignment, numColors, d int) error {
	for v := 0; v < o.N(); v++ {
		if phi[v] < 0 || phi[v] >= numColors {
			return fmt.Errorf("coloring: node %d has color %d outside [0,%d)", v, phi[v], numColors)
		}
		same := 0
		for _, u := range o.Out(v) {
			if phi[u] == phi[v] {
				same++
			}
		}
		if same > d {
			return fmt.Errorf("coloring: node %d has oriented defect %d > %d", v, same, d)
		}
	}
	return nil
}

// OLDCViolators returns the ascending list of nodes whose OLDC constraint
// is violated: uncolored, colored off-list, or with more same-colored
// out-neighbors than the color's defect allows. It is the detection half
// of detect-and-repair solving (oldc.SolveRobust): the violators induce
// the residual subgraph that gets re-solved after a faulty run.
func OLDCViolators(o *graph.Oriented, lists []NodeList, phi Assignment) []int {
	var bad []int
	for v := 0; v < o.N(); v++ {
		if oldcViolated(o, lists, phi, v) {
			bad = append(bad, v)
		}
	}
	return bad
}

// oldcViolated reports whether node v violates its OLDC constraint:
// uncolored, colored off-list, or with more same-colored out-neighbors
// than the color's defect allows.
func oldcViolated(o *graph.Oriented, lists []NodeList, phi Assignment, v int) bool {
	if phi[v] == Unset {
		return true
	}
	d, ok := lists[v].DefectOf(phi[v])
	if !ok {
		return true
	}
	same := 0
	for _, u := range o.Out(v) {
		if phi[u] == phi[v] {
			same++
		}
	}
	return same > d
}

// OLDCViolatorsIn restricts violator detection to the candidate set: it
// returns the ascending, duplicate-free list of candidates whose OLDC
// constraint is violated (nil when none), without touching any other node.
// cand may be unsorted and may contain duplicates (the incremental
// recoloring service accumulates dirty sets as unordered endpoint unions).
//
// Soundness rests on the OLDC constraint being local to out-arcs: starting
// from a coloring with no violators, recoloring a node v can only newly
// violate v itself or nodes with an arc into v, and a mutation can only
// newly violate its endpoints. A caller that seeds cand with the mutation
// endpoints and the in-neighbors of every recolored node therefore sees
// every violator that full-graph detection would.
func OLDCViolatorsIn(o *graph.Oriented, lists []NodeList, phi Assignment, cand []int) []int {
	var bad []int
	for _, v := range cand {
		if oldcViolated(o, lists, phi, v) {
			bad = append(bad, v)
		}
	}
	sort.Ints(bad)
	// Deduplicate in place; duplicates are adjacent after the sort.
	w := 0
	for i, v := range bad {
		if i == 0 || v != bad[w-1] {
			bad[w] = v
			w++
		}
	}
	return bad[:w]
}

// CountColors returns the number of distinct colors used.
func CountColors(phi Assignment) int {
	seen := map[int]bool{}
	for _, c := range phi {
		if c != Unset {
			seen[c] = true
		}
	}
	return len(seen)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
