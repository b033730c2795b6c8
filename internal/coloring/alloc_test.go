package coloring

import (
	"testing"

	"repro/internal/graph"
)

// TestSquareSumAllocs pins that SquareSumOrientedRange allocates the two
// slices of each non-empty list and a constant besides: no per-node set
// of drawn colors and no per-node sort scratch.
func TestSquareSumAllocs(t *testing.T) {
	// The RNG and its source, the instance, its list table, the bit set
	// and its ranks: 6. The two draw-order scratch slices are shared by
	// every node and grow to the longest list, here 1,280 draws, in about
	// 11 steps each.
	const fixed = 32
	o := graph.OrientByID(graph.RandomRegular(256, 32, 1))
	in, err := SquareSumOrientedRange(o, 4096, 5, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	lists := 0
	for _, l := range in.Lists {
		if l.Colors != nil {
			lists++
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SquareSumOrientedRange(o, 4096, 5, 1, 3, 1); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(2*lists + fixed); allocs > budget {
		t.Errorf("SquareSumOrientedRange made %.1f allocations for %d lists, budget %.0f", allocs, lists, budget)
	}
}
