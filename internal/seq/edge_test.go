package seq

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
)

func TestGreedyFailsOnTinyLists(t *testing.T) {
	// K4 with 2-color lists: greedy must get stuck and say so.
	g := graph.Clique(4)
	in := &coloring.Instance{G: g, SpaceSize: 2, Lists: make([]coloring.NodeList, 4)}
	for v := range in.Lists {
		in.Lists[v] = coloring.NodeList{Colors: []int{0, 1}, Defect: []int{0, 0}}
	}
	if _, err := Greedy(in); err == nil {
		t.Fatal("expected greedy to fail")
	}
}

func TestListDefectiveEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	in := &coloring.Instance{G: g, SpaceSize: 1, Lists: make([]coloring.NodeList, 3)}
	for v := range in.Lists {
		in.Lists[v] = coloring.NodeList{Colors: []int{0}, Defect: []int{0}}
	}
	phi, err := ListDefective(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range phi {
		if c != 0 {
			t.Fatal("isolated nodes keep their only color")
		}
	}
}

func TestListArbdefectiveEulerSplit(t *testing.T) {
	// An even cycle with a single color and defect 1: every node ends with
	// out-degree exactly 1 under the Euler orientation.
	g := graph.Ring(8)
	in := &coloring.Instance{G: g, SpaceSize: 1, Lists: make([]coloring.NodeList, 8)}
	for v := range in.Lists {
		in.Lists[v] = coloring.NodeList{Colors: []int{0}, Defect: []int{1}}
	}
	phi, orient, err := ListArbdefective(in)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		if phi[v] != 0 {
			t.Fatal("single color forced")
		}
		if len(orient.Out(v)) != 1 {
			t.Fatalf("node %d out-degree %d, Euler split should give 1", v, len(orient.Out(v)))
		}
	}
}

func TestGreedyUsesListOrder(t *testing.T) {
	// Greedy picks the first free color of each list, so disjoint lists
	// give every node its own first color.
	g := graph.Path(3)
	in := &coloring.Instance{G: g, SpaceSize: 9, Lists: []coloring.NodeList{
		{Colors: []int{0, 1}, Defect: []int{0, 0}},
		{Colors: []int{3, 4}, Defect: []int{0, 0}},
		{Colors: []int{6, 7}, Defect: []int{0, 0}},
	}}
	phi, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if phi[0] != 0 || phi[1] != 3 || phi[2] != 6 {
		t.Fatalf("phi=%v", phi)
	}
}
