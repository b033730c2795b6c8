package coloring

import (
	"testing"

	"repro/internal/graph"
)

func TestUniformDefectiveGenerator(t *testing.T) {
	g := graph.Ring(10)
	in := UniformDefective(g, 32, 4, 2, 7)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, l := range in.Lists {
		if l.Len() != 4 {
			t.Fatalf("list size %d", l.Len())
		}
		for _, d := range l.Defect {
			if d != 2 {
				t.Fatalf("defect %d", d)
			}
		}
	}
}

func TestCheckArbDirect(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	in := &Instance{G: g, SpaceSize: 1, Lists: make([]NodeList, 3)}
	for v := range in.Lists {
		in.Lists[v] = NodeList{Colors: []int{0}, Defect: []int{1}}
	}
	phi := Assignment{0, 0, 0}
	// Orientation 0→1→2: out-defects are 1,1,0 — all ≤ 1.
	o := graph.Orient(g, func(u, v int) bool { return u < v })
	if err := CheckArb(in, phi, o); err != nil {
		t.Fatal(err)
	}
	// All defects 0: must fail.
	for v := range in.Lists {
		in.Lists[v].Defect[0] = 0
	}
	if CheckArb(in, phi, o) == nil {
		t.Fatal("expected arbdefect violation")
	}
}

// TestCheckArbRejectsForeignOrientation pins that an orientation of a
// different graph cannot certify an instance: neither an edgeless graph nor
// one with as many edges in other places, while a structurally equal copy
// of the instance's graph still can.
func TestCheckArbRejectsForeignOrientation(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	in := &Instance{G: g, SpaceSize: 2, Lists: make([]NodeList, 3)}
	for v := range in.Lists {
		in.Lists[v] = NodeList{Colors: []int{0, 1}, Defect: []int{0, 0}}
	}
	mono := Assignment{0, 0, 0}
	for _, other := range []*graph.Graph{
		graph.NewBuilder(3).Build(),
		graph.NewBuilder(3).AddEdge(0, 1).AddEdge(0, 2).Build(),
	} {
		if err := CheckArb(in, mono, graph.OrientByID(other)); err == nil {
			t.Fatalf("orientation of a graph with edges %d accepted a monochromatic path", other.M())
		}
	}
	same := graph.NewBuilder(3).AddEdge(1, 2).AddEdge(0, 1).Build()
	if err := CheckArb(in, Assignment{0, 1, 0}, graph.OrientByID(same)); err != nil {
		t.Fatalf("structurally equal graph: %v", err)
	}
	if err := CheckArb(in, mono, graph.OrientByID(same)); err == nil {
		t.Fatal("structurally equal graph accepted a monochromatic path")
	}
}

func TestCheckProperListDirect(t *testing.T) {
	g := graph.Path(2)
	in := &Instance{G: g, SpaceSize: 4, Lists: []NodeList{
		{Colors: []int{0, 1}, Defect: []int{3, 3}},
		{Colors: []int{0}, Defect: []int{3}},
	}}
	// Proper check ignores defects: same color on an edge always fails.
	if CheckProperList(in, Assignment{0, 0}) == nil {
		t.Fatal("expected monochromatic edge failure")
	}
	if err := CheckProperList(in, Assignment{1, 0}); err != nil {
		t.Fatal(err)
	}
	// Color off the list.
	if CheckProperList(in, Assignment{2, 0}) == nil {
		t.Fatal("expected off-list failure")
	}
	// Uncolored node.
	if CheckProperList(in, Assignment{Unset, 0}) == nil {
		t.Fatal("expected uncolored failure")
	}
}

func TestCheckOrientedDefectiveDirect(t *testing.T) {
	g := graph.Clique(3)
	o := graph.OrientByID(g) // arcs point to smaller ids
	phi := Assignment{0, 0, 0}
	// Vertex 2 has two same-colored out-neighbors.
	if CheckOrientedDefective(o, phi, 1, 1) == nil {
		t.Fatal("defect 1 should fail for vertex 2")
	}
	if err := CheckOrientedDefective(o, phi, 1, 2); err != nil {
		t.Fatal(err)
	}
	if CheckOrientedDefective(o, Assignment{0, 0, 5}, 1, 2) == nil {
		t.Fatal("out-of-range color must fail")
	}
}

func TestCountOLDCViolationsDirect(t *testing.T) {
	g := graph.Clique(3)
	o := graph.OrientByID(g)
	lists := []NodeList{
		{Colors: []int{0}, Defect: []int{0}},
		{Colors: []int{0}, Defect: []int{0}},
		{Colors: []int{0}, Defect: []int{0}},
	}
	// 1 has out-neighbor 0 (same color): violation. 2 has two: violation.
	if got := len(OLDCViolators(o, lists, Assignment{0, 0, 0})); got != 2 {
		t.Fatalf("violations=%d want 2", got)
	}
	if got := len(OLDCViolators(o, lists, Assignment{0, Unset, 0})); got != 2 {
		t.Fatalf("unset counts as violation: got %d", got)
	}
	// Off-list color counts as violation.
	if got := len(OLDCViolators(o, lists, Assignment{0, 7, 0})); got != 2 {
		t.Fatalf("off-list: got %d", got)
	}
}

func TestInstanceValidateMismatch(t *testing.T) {
	g := graph.Ring(4)
	in := &Instance{G: g, SpaceSize: 4, Lists: make([]NodeList, 3)}
	if in.Validate() == nil {
		t.Fatal("list count mismatch must fail")
	}
}
