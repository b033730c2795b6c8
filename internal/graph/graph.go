// Package graph provides the graph substrate for the distributed coloring
// algorithms: a compact adjacency representation for undirected graphs,
// edge orientations, and a collection of deterministic generators used by
// the tests, benchmarks, and experiments.
//
// All vertex identifiers are dense ints in [0, N). Neighbor lists are kept
// sorted so that algorithms and validators are deterministic.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..N-1. Algorithms treat
// it as immutable; the only mutation paths are the Oriented mutation API
// (AddEdge/RemoveEdge/AddNode/DetachNode), which keeps the sorted
// adjacency invariants and exists for the incremental recoloring service.
type Graph struct {
	n   int
	adj [][]int32
	m   int
}

// Builder accumulates edges and produces a Graph. AddEdge panics on a self
// loop or an endpoint outside [0, n); Build drops repeated edges, in
// either orientation.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v int) *Builder {
	if u == v {
		panic(fmt.Sprintf("graph: self loop at %d", u))
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
	return b
}

// Build finalizes the graph: sorted neighbor lists, repeated edges dropped.
func (b *Builder) Build() *Graph {
	return build(b.n, func(emit func(u, v int32)) {
		for _, e := range b.edges {
			emit(e[0], e[1])
		}
	})
}

// build returns the graph on n vertices with the edges that edges emits,
// calling it twice: once to count degrees and lay out one flat adjacency
// array, once to fill it. Both calls must emit the same edges, none a self
// loop or out of range; an edge may repeat. Each vertex's list is a cap-limited window
// of the flat array, sorted and compacted in place, so the mutation API's
// in-place insert reallocates instead of overwriting the next vertex's
// neighbors; an isolated vertex's list is nil.
func build(n int, edges func(emit func(u, v int32))) *Graph {
	// off[v] starts as v's window start; the fill advances it to the end.
	off := make([]int, n+1)
	edges(func(u, v int32) { off[u+1]++; off[v+1]++ })
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	flat := make([]int32, off[n])
	edges(func(u, v int32) {
		flat[off[u]] = v
		off[u]++
		flat[off[v]] = u
		off[v]++
	})
	g := &Graph{n: n, adj: make([][]int32, n)}
	start := 0
	for v := 0; v < n; v++ {
		end := off[v]
		if end > start {
			a := flat[start:end:end]
			slices.Sort(a)
			g.adj[v] = slices.Compact(a)
			g.m += len(g.adj[v])
		}
		start = end
	}
	g.m /= 2
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns deg(v).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Δ(G); 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// ForEachEdge calls f once per undirected edge with u < v.
func (g *Graph) ForEachEdge(f func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.adj[u] {
			if int(w) > u {
				f(u, int(w))
			}
		}
	}
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// along with the mapping from new vertex ids to original ids. vs must not
// contain duplicates — like the Builder's edge checks, a duplicate is a
// programmer error and panics (it formerly corrupted the result
// silently). The translation table is a pooled index slice shared with
// InducedOriented rather than a per-call map, and the adjacency lists are
// carved from one flat array (see filterLists).
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	sc := acquireIndex(g.n)
	defer sc.release(vs)
	orig := make([]int, len(vs))
	for i, v := range vs {
		if sc.idx[v] >= 0 {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced set", v))
		}
		sc.idx[v] = int32(i)
		orig[i] = v
	}
	adj, half := filterLists(g.adj, vs, sc.idx)
	return &Graph{n: len(vs), adj: adj, m: half / 2}, orig
}

// filterLists returns, for each vertex vs[i], the list lists[vs[i]]
// restricted to vertices with an index entry and renamed through idx,
// together with the total entry count. The lists share one flat backing
// array; each is capped at its own segment, so appending to one (the
// Oriented mutation API inserts in place) reallocates it instead of
// overwriting its neighbor's, and an empty list stays nil, as a Builder
// or an append loop leaves it. Sorted input lists stay sorted when vs
// ascends, since renaming then preserves order; otherwise each list is
// sorted in place.
func filterLists(lists [][]int32, vs []int, idx []int32) ([][]int32, int) {
	// Both passes test membership without a branch (1 + idx>>31 is 1 for
	// a member and 0 for the −1 of a non-member): whether a neighbor
	// survives is a coin flip the branch predictor cannot learn. The fill
	// pass writes every candidate and advances past members only, into one
	// slot of slack.
	total := 0
	for _, v := range vs {
		for _, w := range lists[v] {
			total += int(1 + idx[w]>>31)
		}
	}
	ascending := slices.IsSorted(vs)
	flat := make([]int32, total+1)
	out := make([][]int32, len(vs))
	k := 0
	for i, v := range vs {
		start := k
		for _, w := range lists[v] {
			j := idx[w]
			flat[k] = j
			k += int(1 + j>>31)
		}
		if k > start {
			out[i] = flat[start:k:k]
			if !ascending {
				slices.Sort(out[i])
			}
		}
	}
	return out, total
}

// LineGraph returns the line graph L(G): one vertex per edge of g, two
// vertices adjacent iff the edges share an endpoint. It also returns the
// edge represented by each line-graph vertex. Coloring L(G) properly is
// edge coloring g — the application domain (line graphs have bounded
// neighborhood independence) that the paper's color space reduction
// discussion targets.
func (g *Graph) LineGraph() (*Graph, [][2]int) {
	edges := make([][2]int, 0, g.m)
	idx := make(map[[2]int32]int, g.m)
	g.ForEachEdge(func(u, v int) {
		idx[[2]int32{int32(u), int32(v)}] = len(edges)
		edges = append(edges, [2]int{u, v})
	})
	b := NewBuilder(len(edges))
	for v := 0; v < g.n; v++ {
		adj := g.adj[v]
		// All edges incident to v are pairwise adjacent in L(G).
		ids := make([]int, 0, len(adj))
		for _, w := range adj {
			key := [2]int32{int32(v), w}
			if int(w) < v {
				key = [2]int32{w, int32(v)}
			}
			ids = append(ids, idx[key])
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				b.AddEdge(ids[i], ids[j])
			}
		}
	}
	return b.Build(), edges
}
