package algkit

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cover"
)

// countMergeBelow is the two-pointer merge CountBelow replaced: it
// collects the positions of cv's colors that also occur in cu, stopping
// at the tau-th, and counts them once the merge ends below tau.
func countMergeBelow(cnt []int32, cv, cu []int, tau int) {
	var pos []int32
	for i, j := 0, 0; i < len(cv) && j < len(cu) && len(pos) < tau; {
		switch {
		case cv[i] < cu[j]:
			i++
		case cv[i] > cu[j]:
			j++
		default:
			pos = append(pos, int32(i))
			i++
			j++
		}
	}
	if len(pos) >= tau {
		return
	}
	for _, i := range pos {
		cnt[i]++
	}
}

// TestCountBelowMatchesMerge pins the probed below-τ count to the
// two-pointer merge it replaces and to its definition (no τ-conflict,
// then one per common color): a table of τ = 0, τ = 1, τ equal to the
// common count, one above and one below it, and empty sets on either
// side, over lists on the filter's exact side and on its hashed side;
// then random sets. One Scratch serves every case, so each Load must
// clear what the last one left.
func TestCountBelowMatchesMerge(t *testing.T) {
	var sc Scratch
	check := func(cv, cu []int, tau int) {
		t.Helper()
		want := make([]int32, len(cv))
		countMergeBelow(want, cv, cu, tau)
		def := make([]int32, len(cv))
		if !cover.TauGConflict(cv, cu, tau, 0) {
			for j, x := range cv {
				if _, ok := slices.BinarySearch(cu, x); ok {
					def[j]++
				}
			}
		}
		if !slices.Equal(want, def) {
			t.Fatalf("reference merge disagrees with the definition: cv %v, cu %v, τ=%d", cv, cu, tau)
		}
		got := make([]int32, len(cv))
		sc.Filter.Load(cv)
		if sc.CountBelow(got, cu, tau); !slices.Equal(got, want) {
			t.Fatalf("cv %v, cu %v, τ=%d: counts %v, want %v", cv, cu, tau, got, want)
		}
	}
	exact := []int{3, 5, 8, 13, 21, 34, 55}
	hashed := []int{3, 5000, 80000, 1 << 19, 1<<20 - 1}
	for _, tc := range []struct {
		name   string
		cv, cu []int
	}{
		{"exact", exact, []int{1, 3, 4, 8, 21, 34, 56, 1 << 20}},
		{"exact-disjoint", exact, []int{0, 4, 22, 56, 3 + 64*8}},
		{"hashed", hashed, []int{3, 4, 4096, 5000, 1 << 19, 1<<20 - 1}},
		{"hashed-aliased", hashed, []int{3 + 512, 5000 + 512, 80000, 80000 + 1024}},
		{"empty-cv", nil, exact},
		{"empty-cu", exact, nil},
		{"both-empty", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			common := 0
			for _, x := range tc.cu {
				if _, ok := slices.BinarySearch(tc.cv, x); ok {
					common++
				}
			}
			for _, tau := range []int{0, 1, common - 1, common, common + 1, math.MaxInt} {
				check(tc.cv, tc.cu, tau)
			}
		})
	}
	rng := rand.New(rand.NewSource(71))
	set := func(space int) []int {
		seen := map[int]bool{}
		out := []int{}
		for i := rng.Intn(30); i > 0; i-- {
			if x := rng.Intn(space); !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
		sort.Ints(out)
		return out
	}
	for trial := 0; trial < 3000; trial++ {
		space := []int{60, 1 << 12, 1 << 20}[trial%3]
		check(set(space), set(space), rng.Intn(6))
	}
}
