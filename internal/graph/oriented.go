package graph

import (
	"container/list"
	"fmt"
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
// The arc lists come out sorted without a sort: ForEachEdge visits edges
// in (u, v) order over sorted adjacency, so every arc appended to vertex
// x's lists while visiting some u < x names u itself (ascending in u), and
// every arc appended while visiting x names some v > x (ascending in v).
// Each list is therefore its below-x part followed by its above-x part,
// both ascending.
func Orient(g *Graph, dir func(u, v int) bool) *Oriented {
	o := &Oriented{g: g, out: make([][]int32, g.N()), in: make([][]int32, g.N())}
	g.ForEachEdge(func(u, v int) {
		if dir(u, v) {
			o.out[u] = append(o.out[u], int32(v))
			o.in[v] = append(o.in[v], int32(u))
		} else {
			o.out[v] = append(o.out[v], int32(u))
			o.in[u] = append(o.in[u], int32(v))
		}
	})
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
// maximum out-degree equals the degeneracy of the graph.
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
// this function runs on every repair retry of SolveRobust and on every
// mutation batch of the recoloring service.
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
	// Every underlying edge carries at least one arc (Validate pins this),
	// so the surviving arcs determine the induced subgraph's edges; the
	// Builder dedupes the symmetric case where both directions survive.
	b := NewBuilder(len(vs))
	res := &Oriented{out: make([][]int32, len(vs)), in: make([][]int32, len(vs))}
	for i, v := range vs {
		for _, w := range o.out[v] {
			if j := sc.idx[int(w)]; j >= 0 {
				res.out[i] = append(res.out[i], j)
				res.in[j] = append(res.in[j], int32(i))
				b.AddEdge(i, int(j))
			}
		}
	}
	res.g = b.Build()
	for v := range res.out {
		sort.Slice(res.out[v], func(i, j int) bool { return res.out[v][i] < res.out[v][j] })
		sort.Slice(res.in[v], func(i, j int) bool { return res.in[v][i] < res.in[v][j] })
	}
	return res, orig, nil
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

// RawOutDegree returns the actual out-degree (possibly 0).
func (o *Oriented) RawOutDegree(v int) int { return len(o.out[v]) }

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
func (o *Oriented) Validate() error {
	var err error
	o.g.ForEachEdge(func(u, v int) {
		if err != nil {
			return
		}
		if !o.HasArc(u, v) && !o.HasArc(v, u) {
			err = fmt.Errorf("oriented: edge {%d,%d} has no arc", u, v)
		}
	})
	if err != nil {
		return err
	}
	for u := 0; u < o.N(); u++ {
		for _, v := range o.out[u] {
			if !o.g.HasEdge(u, int(v)) {
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
