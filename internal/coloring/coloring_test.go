package coloring

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestNodeListBasics(t *testing.T) {
	l := NodeList{Colors: []int{2, 5, 9}, Defect: []int{0, 1, 3}}
	if err := l.Validate(10); err != nil {
		t.Fatal(err)
	}
	if d, ok := l.DefectOf(5); !ok || d != 1 {
		t.Fatalf("DefectOf(5) = %d,%v", d, ok)
	}
	if _, ok := l.DefectOf(3); ok {
		t.Fatal("3 should not be on the list")
	}
	if l.WeightSum() != 1+2+4 {
		t.Fatalf("WeightSum=%d", l.WeightSum())
	}
}

func TestNodeListValidateErrors(t *testing.T) {
	bad := []NodeList{
		{Colors: []int{1, 1}, Defect: []int{0, 0}},
		{Colors: []int{2, 1}, Defect: []int{0, 0}},
		{Colors: []int{1}, Defect: []int{-1}},
		{Colors: []int{12}, Defect: []int{0}},
		{Colors: []int{1, 2}, Defect: []int{0}},
	}
	for i, l := range bad {
		if l.Validate(10) == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestDegreePlusOneInstance(t *testing.T) {
	g := graph.GNP(40, 0.2, 3)
	in := DegreePlusOne(g, g.MaxDegree()*3, 1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if in.Lists[v].Len() != g.Degree(v)+1 {
			t.Fatalf("node %d list size %d, want %d", v, in.Lists[v].Len(), g.Degree(v)+1)
		}
	}
	if !CondExistsLDC(in) {
		t.Fatal("degree+1 instance must satisfy condition (1)")
	}
	if !CondExistsArb(in) {
		t.Fatal("degree+1 instance must satisfy condition (2)")
	}
}

func TestStandardInstance(t *testing.T) {
	g := graph.Clique(6)
	in := Standard(g)
	if in.SpaceSize != 6 || in.MaxListSize() != 6 {
		t.Fatalf("standard: space=%d Λ=%d", in.SpaceSize, in.MaxListSize())
	}
	if !CondExistsLDC(in) {
		t.Fatal("standard instance satisfies (1)")
	}
}

func TestCliqueUniformTightness(t *testing.T) {
	// Σ(d+1) = n-1 = deg: condition (1) must fail.
	in := CliqueUniform(8, 1, 7)
	if CondExistsLDC(in) {
		t.Fatal("tight clique should violate condition (1)")
	}
	// Σ(d+1) = n > deg: condition holds.
	in2 := CliqueUniform(8, 1, 8)
	if !CondExistsLDC(in2) {
		t.Fatal("clique with slack should satisfy condition (1)")
	}
}

func TestCheckLDC(t *testing.T) {
	g := graph.Ring(4)
	in := &Instance{G: g, SpaceSize: 2, Lists: make([]NodeList, 4)}
	for v := range in.Lists {
		in.Lists[v] = NodeList{Colors: []int{0, 1}, Defect: []int{0, 0}}
	}
	good := Assignment{0, 1, 0, 1}
	if err := CheckLDC(in, good); err != nil {
		t.Fatal(err)
	}
	bad := Assignment{0, 0, 1, 1}
	if CheckLDC(in, bad) == nil {
		t.Fatal("expected defect violation")
	}
	// With defect 1 the bad assignment is fine.
	for v := range in.Lists {
		in.Lists[v] = NodeList{Colors: []int{0, 1}, Defect: []int{1, 1}}
	}
	if err := CheckLDC(in, bad); err != nil {
		t.Fatal(err)
	}
}

func TestCheckOLDCCountsOutOnly(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	o := graph.Orient(g, func(u, v int) bool { return u < v })
	lists := []NodeList{
		{Colors: []int{7}, Defect: []int{0}},
		{Colors: []int{7}, Defect: []int{0}},
		{Colors: []int{7}, Defect: []int{0}},
	}
	phi := Assignment{7, 7, 7}
	// 0→1→2: node 2 has no out-neighbors so only nodes 0 and 1 violate.
	err := CheckOLDC(o, lists, phi)
	if err == nil {
		t.Fatal("expected violation")
	}
	// Allowing defect 1 everywhere fixes it.
	for i := range lists {
		lists[i].Defect[0] = 1
	}
	if err := CheckOLDC(o, lists, phi); err != nil {
		t.Fatal(err)
	}
}

func TestCheckOLDCGap(t *testing.T) {
	g := graph.Path(2)
	o := graph.Orient(g, func(u, v int) bool { return u < v })
	lists := []NodeList{
		{Colors: []int{10}, Defect: []int{0}},
		{Colors: []int{12}, Defect: []int{0}},
	}
	phi := Assignment{10, 12}
	if err := CheckOLDCGap(o, lists, phi, 1); err != nil {
		t.Fatal("|10-12|=2 > g=1 should be fine:", err)
	}
	if CheckOLDCGap(o, lists, phi, 2) == nil {
		t.Fatal("|10-12|=2 ≤ g=2 should violate for node 0")
	}
}

func TestCheckProperAndDefective(t *testing.T) {
	g := graph.Ring(6)
	phi := Assignment{0, 1, 0, 1, 0, 1}
	if err := CheckProper(g, phi, 2); err != nil {
		t.Fatal(err)
	}
	mono := Assignment{0, 0, 0, 0, 0, 0}
	if CheckProper(g, mono, 1) == nil {
		t.Fatal("monochromatic ring should fail proper check")
	}
	if err := CheckDefective(g, mono, 1, 2); err != nil {
		t.Fatal("ring is 2-defective monochromatic:", err)
	}
	if CheckDefective(g, mono, 1, 1) == nil {
		t.Fatal("defect 1 insufficient")
	}
	if CountColors(mono) != 1 || CountColors(phi) != 2 {
		t.Fatal("CountColors wrong")
	}
}

// squareSum returns Σ_{x∈L_v} (d_v(x)+1)², the left side of the
// square-sum condition.
func squareSum(l NodeList) int {
	s := 0
	for _, d := range l.Defect {
		s += (d + 1) * (d + 1)
	}
	return s
}

func TestSquareSumOrientedMeetsTarget(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GNP(30, 0.25, seed)
		o := graph.OrientByID(g)
		in := SquareSumOriented(o, 4096, 2.0, 3, seed)
		if in.Validate() != nil {
			return false
		}
		for v := 0; v < o.N(); v++ {
			beta := o.OutDegree(v)
			if float64(squareSum(in.Lists[v])) < float64(beta*beta)*2.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSquareSumSpaceExhausted asks for a target no list over the space can
// reach: SquareSumOrientedRange returns *ErrSpaceExhausted and
// SquareSumOriented panics with it.
func TestSquareSumSpaceExhausted(t *testing.T) {
	o := graph.OrientByID(graph.Clique(200))
	_, err := SquareSumOrientedRange(o, 4096, 50, 1, 3, 1)
	var se *ErrSpaceExhausted
	if !errors.As(err, &se) || se.SpaceSize != 4096 || se.Kappa != 50 {
		t.Fatalf("err = %v, want *ErrSpaceExhausted over 4096 colors at kappa 50", err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.As(err, &se) {
			t.Fatalf("SquareSumOriented panicked with %v, want *ErrSpaceExhausted", err)
		}
	}()
	SquareSumOriented(o, 4096, 50, 3, 1)
}

// TestSquareSumSpaceBound checks that a space over MaxListSpace is refused
// with an error naming the bound, before any list is drawn.
func TestSquareSumSpaceBound(t *testing.T) {
	o := graph.OrientByID(graph.Ring(8))
	in, err := SquareSumOrientedRange(o, MaxListSpace+1, 5, 1, 3, 1)
	var se *ErrSpaceExhausted
	if err == nil || in != nil || errors.As(err, &se) || !strings.Contains(err.Error(), "16777216") {
		t.Fatalf("got %v, %v; want an error naming the bound 16777216", in, err)
	}
}
