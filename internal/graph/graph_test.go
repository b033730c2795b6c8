package graph

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// Validate checks the adjacency invariants every constructor must keep:
// no self loops, strictly sorted symmetric lists, and m edges.
func (g *Graph) Validate() error {
	cnt := 0
	for v := 0; v < g.n; v++ {
		prev := int32(-1)
		for _, w := range g.adj[v] {
			if w == int32(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if w <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			prev = w
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
			cnt++
		}
	}
	if cnt != 2*g.m {
		return fmt.Errorf("graph: edge count mismatch: m=%d half-edges=%d", g.m, cnt)
	}
	return nil
}

func TestBuilderDedup(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1).AddEdge(1, 0).AddEdge(1, 2).Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self loop")
		}
	}()
	NewBuilder(2).AddEdge(1, 1)
}

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.N() != 5 || g.M() != 5 || g.MaxDegree() != 2 {
		t.Fatalf("ring: n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClique(t *testing.T) {
	g := Clique(7)
	if g.M() != 21 || g.MaxDegree() != 6 {
		t.Fatalf("clique: m=%d Δ=%d", g.M(), g.MaxDegree())
	}
	for u := 0; u < 7; u++ {
		for v := 0; v < 7; v++ {
			if (u != v) != g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) wrong", u, v)
			}
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K_{3,4}: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) || !g.HasEdge(0, 3) {
		t.Fatal("bipartition wrong")
	}
}

func TestGridTorusHypercube(t *testing.T) {
	if g := Grid(3, 4); g.M() != 3*3+2*4 {
		t.Fatalf("grid m=%d", g.M())
	}
	if g := Torus(3, 4); g.M() != 2*12 || g.MaxDegree() != 4 {
		t.Fatalf("torus m=%d Δ=%d", g.M(), g.MaxDegree())
	}
	if g := Hypercube(4); g.N() != 16 || g.M() != 32 || g.MaxDegree() != 4 {
		t.Fatalf("hypercube wrong")
	}
}

func TestCompleteKary(t *testing.T) {
	g := CompleteKary(3, 3) // 1 + 3 + 9 = 13 vertices, 12 edges
	if g.N() != 13 || g.M() != 12 {
		t.Fatalf("k-ary tree: n=%d m=%d", g.N(), g.M())
	}
	if !isConnected(g) {
		t.Fatal("tree not connected")
	}
}

func isConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				cnt++
				stack = append(stack, int(w))
			}
		}
	}
	return cnt == g.N()
}

func TestGNPDeterministic(t *testing.T) {
	g1 := GNP(50, 0.2, 7)
	g2 := GNP(50, 0.2, 7)
	if g1.M() != g2.M() {
		t.Fatal("GNP not deterministic for equal seeds")
	}
	g3 := GNP(50, 0.2, 8)
	if g1.M() == g3.M() && sameEdges(g1, g3) {
		t.Fatal("GNP identical across seeds (suspicious)")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func sameEdges(a, b *Graph) bool {
	same := true
	a.ForEachEdge(func(u, v int) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	return same
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {16, 5}, {50, 8}} {
		g := RandomRegular(tc.n, tc.d, 42)
		if g.N() != tc.n {
			t.Fatalf("n=%d", g.N())
		}
		for v := 0; v < tc.n; v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d): deg(%d)=%d", tc.n, tc.d, v, g.Degree(v))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(100, 3, 1)
	if g.N() != 100 {
		t.Fatalf("n=%d", g.N())
	}
	for v := 4; v < 100; v++ {
		if g.Degree(v) < 3 {
			t.Fatalf("deg(%d)=%d < k", v, g.Degree(v))
		}
	}
	if !isConnected(g) {
		t.Fatal("PA graph disconnected")
	}
}

// TestPADeterministicAcrossRuns guards the reproducibility fix: an
// earlier PreferentialAttachment appended endpoints in map iteration
// order, so the same seed could produce different graphs. The graph must
// be a pure function of (n, k, seed).
func TestPADeterministicAcrossRuns(t *testing.T) {
	first := PreferentialAttachment(300, 3, 1234)
	for run := 1; run < 5; run++ {
		g := PreferentialAttachment(300, 3, 1234)
		if g.M() != first.M() {
			t.Fatalf("run %d: m=%d, first run m=%d", run, g.M(), first.M())
		}
		for v := 0; v < g.N(); v++ {
			if !slices.Equal(g.Neighbors(v), first.Neighbors(v)) {
				t.Fatalf("run %d: neighbors of %d differ", run, v)
			}
		}
	}
}

// TestGNPDegreeSanity spot-checks the skip-sampling math: the edge count
// of a large sparse sample must land near n(n-1)/2 · p.
func TestGNPDegreeSanity(t *testing.T) {
	n, p := 2000, 0.01
	g := GNP(n, p, 77)
	expected := float64(n) * float64(n-1) / 2 * p
	if ratio := float64(g.M()) / expected; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("m=%d, expected ≈%.0f (ratio %.3f)", g.M(), expected, ratio)
	}
}

func TestRandomTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 57, 200} {
		g := RandomTree(n, int64(n))
		if g.N() != n || g.M() != n-1 {
			t.Fatalf("RandomTree(%d): n=%d m=%d", n, g.N(), g.M())
		}
		if !isConnected(g) {
			t.Fatalf("RandomTree(%d) disconnected", n)
		}
	}
}

// Disjoint returns the disjoint union of the given graphs.
func Disjoint(gs ...*Graph) *Graph {
	total := 0
	for _, g := range gs {
		total += g.N()
	}
	b := NewBuilder(total)
	off := 0
	for _, g := range gs {
		g.ForEachEdge(func(u, v int) { b.AddEdge(u+off, v+off) })
		off += g.N()
	}
	return b.Build()
}

func TestDisjoint(t *testing.T) {
	g := Disjoint(Ring(3), Clique(4))
	if g.N() != 7 || g.M() != 3+6 {
		t.Fatalf("disjoint: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(2, 3) {
		t.Fatal("cross edge in disjoint union")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Clique(6)
	s, orig := g.InducedSubgraph([]int{1, 3, 5})
	if s.N() != 3 || s.M() != 3 {
		t.Fatalf("induced: n=%d m=%d", s.N(), s.M())
	}
	if orig[0] != 1 || orig[2] != 5 {
		t.Fatal("orig mapping wrong")
	}
}

func TestLineGraph(t *testing.T) {
	// L(C_n) is C_n.
	lg, edges := graph(t, Ring(5))
	if lg.N() != 5 || lg.M() != 5 || lg.MaxDegree() != 2 {
		t.Fatalf("L(C5): n=%d m=%d Δ=%d", lg.N(), lg.M(), lg.MaxDegree())
	}
	if len(edges) != 5 {
		t.Fatalf("edges len %d", len(edges))
	}
	// L(K4) is the octahedron K_{2,2,2}: 6 vertices, 12 edges, 4-regular.
	lg4, _ := graph(t, Clique(4))
	if lg4.N() != 6 || lg4.M() != 12 || lg4.MaxDegree() != 4 {
		t.Fatalf("L(K4): n=%d m=%d Δ=%d", lg4.N(), lg4.M(), lg4.MaxDegree())
	}
	// Star S_k → L is K_k.
	star := CompleteBipartite(1, 6)
	lgs, _ := graph(t, star)
	if lgs.N() != 6 || lgs.M() != 15 {
		t.Fatalf("L(S6): n=%d m=%d", lgs.N(), lgs.M())
	}
}

func graph(t *testing.T, g *Graph) (*Graph, [][2]int) {
	t.Helper()
	lg, edges := g.LineGraph()
	if err := lg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Adjacency in L(G) ⇔ shared endpoint.
	for i := 0; i < lg.N(); i++ {
		for j := i + 1; j < lg.N(); j++ {
			shares := edges[i][0] == edges[j][0] || edges[i][0] == edges[j][1] ||
				edges[i][1] == edges[j][0] || edges[i][1] == edges[j][1]
			if lg.HasEdge(i, j) != shares {
				t.Fatalf("line graph adjacency wrong for %v vs %v", edges[i], edges[j])
			}
		}
	}
	return lg, edges
}

func TestInducedSubgraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := GNP(30, 0.3, seed)
		vs := []int{0, 5, 7, 12, 29}
		s, orig := g.InducedSubgraph(vs)
		for i := 0; i < s.N(); i++ {
			for j := i + 1; j < s.N(); j++ {
				if s.HasEdge(i, j) != g.HasEdge(orig[i], orig[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
