package graph

import "testing"

func TestComponents(t *testing.T) {
	g := Disjoint(Ring(4), Path(3), Clique(2))
	n, comp := g.Components()
	if n != 3 {
		t.Fatalf("components=%d", n)
	}
	if comp[0] != comp[3] || comp[4] != comp[6] || comp[0] == comp[4] {
		t.Fatalf("component ids wrong: %v", comp)
	}
}

func TestNeighborhoodIndependence(t *testing.T) {
	// Cliques: any neighborhood is a clique → θ = 1.
	if got, err := Clique(6).NeighborhoodIndependence(); err != nil || got != 1 {
		t.Fatalf("K6: θ=%d err=%v", got, err)
	}
	// Stars: the center's neighborhood is independent → θ = n−1.
	if got, err := CompleteBipartite(1, 5).NeighborhoodIndependence(); err != nil || got != 5 {
		t.Fatalf("star: θ=%d err=%v", got, err)
	}
	// Line graphs have θ ≤ 2 — the property the paper's edge-coloring
	// discussion rests on.
	for _, g := range []*Graph{Ring(8), GNP(14, 0.4, 3), RandomRegular(12, 4, 5)} {
		lg, _ := g.LineGraph()
		got, err := lg.NeighborhoodIndependence()
		if err != nil {
			t.Fatal(err)
		}
		if got > 2 {
			t.Fatalf("line graph has θ=%d > 2", got)
		}
	}
	// Degree cap.
	if _, err := CompleteBipartite(1, 30).NeighborhoodIndependence(); err == nil {
		t.Fatal("expected degree cap error")
	}
}
