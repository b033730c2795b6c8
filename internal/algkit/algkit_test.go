package algkit

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cover"
)

// TestCountMergeBelowMatchesTwoPass pins the one-pass counting merge to
// the two passes it replaces: a τ-conflict test, then CountMerge for the
// sets that pass it.
func TestCountMergeBelowMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	set := func() []int {
		seen := map[int]bool{}
		out := []int{}
		for i := rng.Intn(30); i > 0; i-- {
			if x := rng.Intn(60); !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
		sort.Ints(out)
		return out
	}
	var sc Scratch
	for trial := 0; trial < 3000; trial++ {
		cv, cu := set(), set()
		tau := rng.Intn(6)
		want := make([]int32, len(cv))
		if !cover.TauGConflict(cv, cu, tau, 0) {
			CountMerge(want, cv, cu)
		}
		got := make([]int32, len(cv))
		if sc.CountMergeBelow(got, cv, cu, tau); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d τ=%d: counts %v, want %v", trial, tau, got, want)
		}
	}
}
