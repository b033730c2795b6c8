package graph

import "fmt"

// Components returns the number of connected components and a component
// id per vertex.
func (g *Graph) Components() (int, []int) {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int32
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.adj[v] {
				if comp[w] == -1 {
					comp[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	return next, comp
}

// NeighborhoodIndependence returns θ(G): the maximum size of an
// independent set contained in a single neighborhood. Line graphs have
// θ ≤ 2, the structural property behind the paper's color-space-reduction
// results for edge coloring. Exact computation is exponential in the
// degree; degrees above 24 are rejected.
func (g *Graph) NeighborhoodIndependence() (int, error) {
	best := 0
	for v := 0; v < g.n; v++ {
		nb := g.adj[v]
		if len(nb) > 24 {
			return 0, fmt.Errorf("graph: degree %d too large for exact neighborhood independence", len(nb))
		}
		if s := maxIndependentSubset(g, nb); s > best {
			best = s
		}
	}
	return best, nil
}

// maxIndependentSubset finds the largest independent subset of the given
// vertices by branch and bound over the (small) candidate set.
func maxIndependentSubset(g *Graph, cand []int32) int {
	best := 0
	var rec func(idx int, chosen []int32)
	rec = func(idx int, chosen []int32) {
		if len(chosen)+(len(cand)-idx) <= best {
			return
		}
		if idx == len(cand) {
			if len(chosen) > best {
				best = len(chosen)
			}
			return
		}
		v := cand[idx]
		ok := true
		for _, u := range chosen {
			if g.HasEdge(int(u), int(v)) {
				ok = false
				break
			}
		}
		if ok {
			rec(idx+1, append(chosen, v))
		}
		rec(idx+1, chosen)
	}
	rec(0, nil)
	return best
}
