package coloring

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
)

// TestOLDCViolatorsInMatchesFull is the property test for scoped
// detection: over random graphs, random (frequently invalid) colorings,
// and random unsorted candidate multisets, OLDCViolatorsIn must return
// exactly the intersection of the full violator set with the candidates,
// sorted and deduplicated.
func TestOLDCViolatorsInMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(40)
		deg := 2 + rng.Intn(6)
		if deg >= n {
			deg = n - 1
		}
		if (n*deg)%2 == 1 {
			deg--
		}
		g := graph.RandomRegular(n, deg, int64(trial))
		o := graph.OrientByID(g)

		lists := make([]NodeList, n)
		phi := make(Assignment, n)
		for v := 0; v < n; v++ {
			k := 1 + rng.Intn(3)
			l := NodeList{Colors: make([]int, 0, k), Defect: make([]int, 0, k)}
			for c := 0; c < k; c++ {
				l.Colors = append(l.Colors, c*3) // sorted, distinct
				l.Defect = append(l.Defect, rng.Intn(2))
			}
			lists[v] = l
			switch rng.Intn(8) {
			case 0:
				phi[v] = Unset
			case 1:
				phi[v] = 999 // off-list
			default:
				phi[v] = l.Colors[rng.Intn(len(l.Colors))]
			}
		}

		full := OLDCViolators(o, lists, phi)
		inFull := make(map[int]bool, len(full))
		for _, v := range full {
			inFull[v] = true
		}

		// Random multiset of candidates, unsorted, with repeats.
		cand := make([]int, rng.Intn(2*n))
		for i := range cand {
			cand[i] = rng.Intn(n)
		}
		want := []int{}
		seen := map[int]bool{}
		for _, v := range cand {
			if inFull[v] && !seen[v] {
				seen[v] = true
				want = append(want, v)
			}
		}
		sort.Ints(want)

		got := OLDCViolatorsIn(o, lists, phi, cand)
		if len(got) == 0 {
			got = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: scoped violators %v, want %v (full %v, cand %v)",
				trial, got, want, full, cand)
		}

		// Candidates = all nodes must reproduce the full set exactly.
		all := make([]int, n)
		for i := range all {
			all[i] = n - 1 - i // reversed: exercises the sort
		}
		gotAll := OLDCViolatorsIn(o, lists, phi, all)
		if len(full) == 0 {
			if len(gotAll) != 0 {
				t.Fatalf("trial %d: scoped-all %v, want empty", trial, gotAll)
			}
		} else if !reflect.DeepEqual(gotAll, full) {
			t.Fatalf("trial %d: scoped-all %v, want %v", trial, gotAll, full)
		}
	}
}
