package oldc

import (
	"slices"
	"testing"

	"repro/internal/algkit"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestNextPow2(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {17, 32}, {1024, 1024},
	} {
		if got := algkit.NextPow2(tc.in); got != tc.want {
			t.Fatalf("algkit.NextPow2(%d)=%d want %d", tc.in, got, tc.want)
		}
	}
}

func TestClassCount(t *testing.T) {
	// h = ⌈log₂ β̂⌉, at least 1.
	ring := graph.OrientByID(graph.Ring(8))
	if h := classCount(ring); h != 1 {
		t.Fatalf("ring h=%d", h)
	}
	k9 := graph.OrientByID(graph.Clique(9)) // β̂ = 8
	if h := classCount(k9); h != 3 {
		t.Fatalf("K9 h=%d", h)
	}
}

func TestMaxOutDegreePow2(t *testing.T) {
	g := graph.CompleteBipartite(1, 5) // star: center degree 5
	o := graph.Orient(g, func(u, v int) bool { return u == 0 })
	if b := algkit.MaxOutDegreePow2(o); b != 8 {
		t.Fatalf("β̂=%d want 8", b)
	}
}

func TestRemoveBadColors(t *testing.T) {
	// Star center (class 2) with five lower-class out-neighbors whose
	// announced candidate sets make colors 1 and 2 appear in more than
	// d/4 = 2 sets; those colors must be removed.
	g := graph.CompleteBipartite(1, 5)
	o := graph.Orient(g, func(u, v int) bool { return u == 0 })
	spec := basicSpec{
		o: o, spaceSize: 16, m: 8, initColors: []int{0, 1, 2, 3, 4, 5},
		lists:  [][]int{{1, 2, 3, 4}, {5}, {5}, {5}, {5}, {5}},
		defect: []int{8, 0, 0, 0, 0, 0},
		gclass: []int{2, 1, 1, 1, 1, 1}, h: 2,
		tau: 2, kprime: 4, pr: cover.Practical(),
	}
	a := newTwoPhase(spec)
	// Per-color occurrence counts: 1→3, 2→5, 3→2 (at the limit: kept), 4→0.
	sets := [][]int{{1, 2, 3}, {1, 2, 3}, {1, 2}, {2}, {2}}
	for p := a.csr.Off[0]; p < a.csr.Off[1]; p++ {
		a.nbrType[p] = typeInfo{gclass: 1}
		a.nbrCv[p] = sets[int(p-a.csr.Off[0])]
	}
	got := a.removeBadColors(0)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("removeBadColors=%v", got)
	}
}

func TestRemoveBadColorsKeepsLeastBad(t *testing.T) {
	// defect 0 → limit 0; both colors occur in lower-class sets, so all are
	// bad and the fallback keeps the least-occurring one.
	g := graph.CompleteBipartite(1, 2)
	o := graph.Orient(g, func(u, v int) bool { return u == 0 })
	spec := basicSpec{
		o: o, spaceSize: 16, m: 8, initColors: []int{0, 1, 2},
		lists:  [][]int{{1, 2}, {5}, {5}},
		defect: []int{0, 0, 0},
		gclass: []int{2, 1, 1}, h: 2,
		tau: 2, kprime: 4, pr: cover.Practical(),
	}
	a := newTwoPhase(spec)
	// Counts: color 1 → 2 sets, color 2 → 1 set.
	sets := [][]int{{1, 2}, {1}}
	for p := a.csr.Off[0]; p < a.csr.Off[1]; p++ {
		a.nbrType[p] = typeInfo{gclass: 1}
		a.nbrCv[p] = sets[int(p-a.csr.Off[0])]
	}
	got := a.removeBadColors(0)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("least-bad fallback=%v", got)
	}
}

func TestIgnoredThreshold(t *testing.T) {
	g := graph.Path(2)
	o := graph.OrientByID(g)
	spec := basicSpec{
		o: o, spaceSize: 64, m: 4, initColors: []int{0, 1},
		lists:  [][]int{{1, 2, 3}, {4}},
		defect: []int{0, 0}, gclass: []int{1, 1}, h: 1,
		tau: 2, kprime: 4, pr: cover.Practical(),
	}
	a := newTwoPhase(spec)
	a.cv[0] = []int{1, 2, 3}
	if a.ignored(0, []int{1, 9, 10}) {
		t.Fatal("1 shared color < τ=2 must not be ignored")
	}
	if !a.ignored(0, []int{1, 2, 10}) {
		t.Fatal("2 shared colors ≥ τ=2 must be ignored")
	}
}

func TestBasicAlgRejectsBadSpec(t *testing.T) {
	g := graph.Path(2)
	o := graph.OrientByID(g)
	spec := basicSpec{
		o: o, spaceSize: 8, m: 4, initColors: []int{0, 1},
		lists:  [][]int{{}, {1}},
		defect: []int{0, 0}, gclass: []int{1, 1}, h: 1,
		tau: 2, kprime: 2, pr: cover.Practical(),
	}
	if _, err := newBasicAlg(spec); err == nil {
		t.Fatal("empty list must be rejected")
	}
	spec.lists[0] = []int{1}
	spec.gclass[0] = 9 // outside [1, h]
	if _, err := newBasicAlg(spec); err == nil {
		t.Fatal("γ-class out of range must be rejected")
	}
}

func TestFamilyOfConsistency(t *testing.T) {
	// The sender and the receiver must derive identical families from the
	// same type — the core of the Lemma 3.6 encoding trick.
	g := graph.Path(2)
	o := graph.OrientByID(g)
	spec := basicSpec{
		o: o, spaceSize: 64, m: 8, initColors: []int{3, 5},
		lists:  [][]int{{1, 5, 9, 13, 17, 21}, {2, 6}},
		defect: []int{1, 0}, gclass: []int{2, 1}, h: 2,
		tau: 2, kprime: 4, pr: cover.Practical(),
	}
	a, err := newBasicAlg(spec)
	if err != nil {
		t.Fatal(err)
	}
	ti := typeInfo{initColor: 3, gclass: 2, defect: 1, list: a.reslist[0]}
	k1 := a.familyOf(ti)
	k2 := a.familyOf(ti)
	if len(k1.Sets) == 0 || len(k1.Sets) != len(k2.Sets) {
		t.Fatalf("family sizes %d vs %d", len(k1.Sets), len(k2.Sets))
	}
	for i := range k1.Sets {
		if !slices.Equal(k1.Sets[i], k2.Sets[i]) {
			t.Fatal("family derivation not deterministic")
		}
	}
	if a.ownK[0] == nil || !slices.Equal(a.ownK[0].Sets[0], k1.Sets[0]) {
		t.Fatal("own family must match the type derivation")
	}
	// With the cache on, both derivations must be the same memoized entry.
	if k1 != k2 {
		t.Fatal("cache must return the same entry for equal types")
	}
}

// TestPickColorMatchesReference re-picks every node after a solve and
// compares Phase II's per-color counts with the rule written out: one per
// color of C_v for each same-class neighbor set the ignored test keeps
// that holds it, and one for each neighbor's color that equals it. Over
// 2^11 colors some same-class sets reach τ common colors and some
// neighbor colors fall in C_v, so both parts of the rule are exercised.
func TestPickColorMatchesReference(t *testing.T) {
	g := permutedCirculant(128, 16, 3)
	in := identityInput(graph.OrientByID(g), 1<<11, 6.0, 3, 5)
	eng := sim.NewEngine(g)
	a, prep, err := prepareTwoPhase(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.sink = eng
	if _, err := eng.RunFrom(a, 0, twoPhaseMaxRounds(a.spec.h), prep); err != nil {
		t.Fatal(err)
	}
	var sc algkit.Scratch
	ignored, colorHits := 0, 0
	for v := 0; v < g.N(); v++ {
		cv := a.cv[v]
		want := make([]int32, len(cv))
		for p := a.csr.Off[v]; p < a.csr.Off[v+1]; p++ {
			if cu := a.nbrCv[p]; cu != nil && a.nbrType[p].gclass == a.spec.gclass[v] {
				if a.ignored(v, cu) {
					ignored++
				} else {
					for j, x := range cv {
						if slices.Contains(cu, x) {
							want[j]++
						}
					}
				}
			}
			if xu := a.nbrColor[p]; xu >= 0 {
				if j := slices.Index(cv, int(xu)); j >= 0 {
					want[j]++
					colorHits++
				}
			}
		}
		if a.pickColor(v, &sc); !slices.Equal(sc.Cnt, want) {
			t.Fatalf("node %d: counts %v, want %v", v, sc.Cnt, want)
		}
	}
	if ignored == 0 || colorHits == 0 {
		t.Fatalf("%d ignored sets and %d neighbor colors in C_v: the instance no longer exercises the rule", ignored, colorHits)
	}
}
