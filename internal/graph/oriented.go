package graph

import (
	"container/list"
	"fmt"
	"slices"
	"sort"
)

// Oriented is a simple undirected graph together with an orientation of
// every edge. It is the input shape for the oriented list defective
// coloring (OLDC) algorithms: communication is bidirectional, but defect
// constraints only count out-neighbors.
type Oriented struct {
	g   *Graph
	out [][]int32
	in  [][]int32
}

// Orient orients g using dir: dir(u, v) must return true iff the edge
// {u, v} is oriented u→v, and must be antisymmetric.
//
// Each edge yields exactly one arc, so a vertex's out- and in-degrees sum
// to its degree: the arc lists are carved from one degree-sized flat
// array, vertex x owning a segment of deg(x) slots that its out-arcs fill
// from the left and its in-arcs from the right. Every list is capped at
// its own part, so the mutation API's in-place inserts reallocate instead
// of overwriting, and an empty list stays nil. The lists come out sorted
// without a sort: edges are visited in (u, v) order over sorted adjacency,
// so every arc added to x's lists while visiting some u < x names u itself
// (ascending in u), and every arc added while visiting x names some v > x
// (ascending in v). Each list is therefore its below-x part followed by
// its above-x part, both ascending — reversed for the in-arcs, which fill
// their part backwards.
func Orient(g *Graph, dir func(u, v int) bool) *Oriented {
	n := g.N()
	o := &Oriented{g: g, out: make([][]int32, n), in: make([][]int32, n)}
	outEnd := make([]int, n)  // one past x's last out-arc
	inStart := make([]int, n) // x's first in-arc
	deg := 0
	for x := 0; x < n; x++ {
		outEnd[x] = deg
		deg += len(g.adj[x])
		inStart[x] = deg
	}
	flat := make([]int32, deg)
	for u := 0; u < n; u++ {
		for _, w := range g.adj[u] {
			if v := int(w); v > u {
				from, to := u, v
				if !dir(u, v) {
					from, to = v, u
				}
				flat[outEnd[from]] = int32(to)
				outEnd[from]++
				inStart[to]--
				flat[inStart[to]] = int32(from)
			}
		}
	}
	start := 0
	for x := 0; x < n; x++ {
		end := start + len(g.adj[x])
		if mid := outEnd[x]; mid > start {
			o.out[x] = flat[start:mid:mid]
		}
		if mid := inStart[x]; end > mid {
			o.in[x] = flat[mid:end:end]
			slices.Reverse(o.in[x])
		}
		start = end
	}
	return o
}

// OrientByID orients every edge toward the smaller endpoint. The resulting
// maximum out-degree equals the maximum degree in the worst case; it is the
// "no structure" default orientation.
func OrientByID(g *Graph) *Oriented {
	return Orient(g, func(u, v int) bool { return u > v })
}

// OrientSymmetric replaces every undirected edge {u,v} by treating both
// endpoints as out-neighbors of each other, which converts an undirected
// list defective coloring instance into an equivalent oriented one (see the
// remark after Theorem 1.2 in the paper).
func OrientSymmetric(g *Graph) *Oriented {
	o := &Oriented{g: g, out: make([][]int32, g.N()), in: make([][]int32, g.N())}
	for v := 0; v < g.N(); v++ {
		o.out[v] = g.Neighbors(v)
		o.in[v] = g.Neighbors(v)
	}
	return o
}

// OrientDegeneracy orients along a degeneracy (smallest-last) ordering:
// each vertex points to neighbors that come later in the ordering, so the
// maximum out-degree equals the degeneracy of the graph. Only tests use
// it, as a fixture in several packages.
func OrientDegeneracy(g *Graph) *Oriented {
	ordPos := degeneracyOrder(g)
	return Orient(g, func(u, v int) bool { return ordPos[u] < ordPos[v] })
}

// degeneracyOrder returns position-in-order for a smallest-last ordering.
func degeneracyOrder(g *Graph) []int {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	maxDeg := g.MaxDegree()
	buckets := make([]*list.List, maxDeg+1)
	elems := make([]*list.Element, n)
	for d := range buckets {
		buckets[d] = list.New()
	}
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		elems[v] = buckets[deg[v]].PushBack(v)
	}
	pos := make([]int, n)
	cur := 0
	for i := 0; i < n; i++ {
		// Removing a vertex demotes neighbors by one bucket, so the
		// minimum occupied bucket can be one below the previous one.
		if cur > 0 {
			cur--
		}
		for buckets[cur].Len() == 0 {
			cur++
		}
		e := buckets[cur].Front()
		v := e.Value.(int)
		buckets[cur].Remove(e)
		removed[v] = true
		pos[v] = i
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				buckets[deg[w]].Remove(elems[int(w)])
				deg[w]--
				elems[w] = buckets[deg[w]].PushBack(int(w))
			}
		}
	}
	return pos
}

// InducedOriented returns the orientation induced on the given vertex set:
// the induced subgraph of the underlying graph, with exactly the arcs whose
// endpoints both survive, plus the mapping from new ids to original ids.
// Unlike re-running Orient with a HasArc predicate, this preserves
// symmetric orientations (where both directions of an edge are arcs).
//
// vs must not contain duplicates: a duplicate entry is reported as a
// wrapped ErrDuplicateVertex (it formerly produced a silently corrupt
// subgraph). Out-of-range vertices are reported as ErrVertexRange. The
// translation table is a pooled index slice rather than a per-call map —
// this function runs on every batch of the Theorem 1.3 driver, on every
// repair retry of SolveRobust and on every mutation batch of the
// recoloring service — and the adjacency, out- and in-lists are each
// carved from one flat array (see filterLists).
func InducedOriented(o *Oriented, vs []int) (*Oriented, []int, error) {
	n := o.N()
	sc := acquireIndex(n)
	defer sc.release(vs)
	orig := make([]int, len(vs))
	for i, v := range vs {
		if v < 0 || v >= n {
			return nil, nil, fmt.Errorf("%w: vertex %d outside [0,%d)", ErrVertexRange, v, n)
		}
		if sc.idx[v] >= 0 {
			return nil, nil, fmt.Errorf("%w: vertex %d", ErrDuplicateVertex, v)
		}
		sc.idx[v] = int32(i)
		orig[i] = v
	}
	// Every underlying edge carries at least one arc and every arc lies on
	// an edge (Validate pins both), so the induced subgraph's edges are the
	// parent's edges between survivors.
	adj, half := filterLists(o.g.adj, vs, sc.idx)
	out, _ := filterLists(o.out, vs, sc.idx)
	in, _ := filterLists(o.in, vs, sc.idx)
	return &Oriented{g: &Graph{n: len(vs), adj: adj, m: half / 2}, out: out, in: in}, orig, nil
}

// Graph returns the underlying undirected graph.
func (o *Oriented) Graph() *Graph { return o.g }

// N returns the number of vertices.
func (o *Oriented) N() int { return o.g.N() }

// Out returns the sorted out-neighbors of v (shared slice).
func (o *Oriented) Out(v int) []int32 { return o.out[v] }

// In returns the sorted in-neighbors of v (shared slice).
func (o *Oriented) In(v int) []int32 { return o.in[v] }

// OutDegree returns β_v as defined in the paper: max(1, outdeg(v)).
func (o *Oriented) OutDegree(v int) int {
	if len(o.out[v]) == 0 {
		return 1
	}
	return len(o.out[v])
}

// MaxOutDegree returns β = max_v β_v.
func (o *Oriented) MaxOutDegree() int {
	b := 1
	for v := 0; v < o.N(); v++ {
		if d := o.OutDegree(v); d > b {
			b = d
		}
	}
	return b
}

// HasArc reports whether the edge {u,v} is oriented u→v.
func (o *Oriented) HasArc(u, v int) bool {
	a := o.out[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// Validate checks that the orientation covers each underlying edge at least
// once (OrientSymmetric covers both directions) and introduces no foreign
// arcs.
//
// Both checks are merge walks over the sorted lists, with no search. Edges
// {u, v}, u < v, are visited by ascending u, so the cursor into out[v]
// that looks for the arc v→u only ever moves forward.
func (o *Oriented) Validate() error {
	n := o.N()
	back := make([]int, n) // back[v]: cursor into out[v]
	for u := 0; u < n; u++ {
		out, k := o.out[u], 0
		for _, w := range o.g.adj[u] {
			v := int(w)
			if v <= u {
				continue
			}
			for k < len(out) && out[k] < w {
				k++
			}
			ov, j := o.out[v], back[v]
			for j < len(ov) && int(ov[j]) < u {
				j++
			}
			back[v] = j
			if (k == len(out) || out[k] != w) && (j == len(ov) || int(ov[j]) != u) {
				return fmt.Errorf("oriented: edge {%d,%d} has no arc", u, v)
			}
		}
	}
	for u := 0; u < n; u++ {
		adj, i := o.g.adj[u], 0
		for _, v := range o.out[u] {
			for i < len(adj) && adj[i] < v {
				i++
			}
			if i == len(adj) || adj[i] != v {
				return fmt.Errorf("oriented: arc %d->%d has no underlying edge", u, v)
			}
		}
	}
	return nil
}

// EulerOrientation orients the edges of g such that every vertex v has
// out-degree at most ceil(deg(v)/2). It follows the Lemma A.2 construction:
// pair up odd-degree vertices with virtual edges, walk Euler circuits of
// each connected component of the augmented multigraph, and orient real
// edges along the walk.
func EulerOrientation(g *Graph) *Oriented {
	n := g.N()
	type arc struct {
		to      int32
		pairIdx int32 // index of this half-edge's partner arc in arcs
		virtual bool
	}
	var arcs []arc
	head := make([][]int32, n) // indices into arcs per vertex
	addEdge := func(u, v int, virtual bool) {
		iu := int32(len(arcs))
		arcs = append(arcs, arc{to: int32(v), virtual: virtual})
		iv := int32(len(arcs))
		arcs = append(arcs, arc{to: int32(u), virtual: virtual})
		arcs[iu].pairIdx = iv
		arcs[iv].pairIdx = iu
		head[u] = append(head[u], iu)
		head[v] = append(head[v], iv)
	}
	g.ForEachEdge(func(u, v int) { addEdge(u, v, false) })
	// Pair up odd-degree vertices with virtual edges so every vertex has
	// even degree in the augmented multigraph.
	var odd []int
	for v := 0; v < n; v++ {
		if len(head[v])%2 == 1 {
			odd = append(odd, v)
		}
	}
	for i := 0; i+1 < len(odd); i += 2 {
		addEdge(odd[i], odd[i+1], true)
	}
	used := make([]bool, len(arcs))
	next := make([]int, n) // per-vertex scan pointer into head
	outAdj := make([][]int32, n)
	inAdj := make([][]int32, n)
	// Hierholzer walk from every vertex with unused incident arcs.
	for s := 0; s < n; s++ {
		for next[s] < len(head[s]) {
			if used[head[s][next[s]]] {
				next[s]++
				continue
			}
			// Walk a circuit starting at s; every vertex in the augmented
			// graph has even degree, so the walk returns to s.
			v := s
			for {
				for next[v] < len(head[v]) && used[head[v][next[v]]] {
					next[v]++
				}
				if next[v] == len(head[v]) {
					break
				}
				ai := head[v][next[v]]
				a := arcs[ai]
				used[ai] = true
				used[a.pairIdx] = true
				if !a.virtual {
					outAdj[v] = append(outAdj[v], a.to)
					inAdj[a.to] = append(inAdj[a.to], int32(v))
				}
				v = int(a.to)
			}
		}
	}
	for v := 0; v < n; v++ {
		sort.Slice(outAdj[v], func(i, j int) bool { return outAdj[v][i] < outAdj[v][j] })
		sort.Slice(inAdj[v], func(i, j int) bool { return inAdj[v][i] < inAdj[v][j] })
	}
	return &Oriented{g: g, out: outAdj, in: inAdj}
}
