package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// stalledSeed was drawn by a time-seeded property test: with it, the swap
// repair of RandomRegular(8, 6) reaches a state in which its first bad pair
// has no admissible swap partner.
var stalledSeed = int64(-0x773c8fac2ba7224f) // 0x88c37053d458ddb1 as int64

// TestRandomRegularStalledSeeds covers seeds whose swap repair stalls:
// the generator reshuffles from the same rng instead of panicking, and
// still returns a simple d-regular graph.
func TestRandomRegularStalledSeeds(t *testing.T) {
	for _, seed := range []int64{stalledSeed, 0, 3, 4, 10, 23, 29} {
		g := RandomRegular(8, 6, seed)
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != 6 {
				t.Fatalf("seed %d: deg(%d) = %d, want 6", seed, v, g.Degree(v))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// digestRegular pins the graphs of seeds whose repair converges on the
// first shuffle, which the reshuffle fallback must leave unchanged.
const digestRegular = "307b9ad2f81021af"

func TestRandomRegularConvergedSeedsUnchanged(t *testing.T) {
	h := sha256.New()
	for _, tc := range []struct {
		n, d int
		seed int64
	}{{8, 6, 1}, {8, 6, 2}, {10, 3, 42}, {48, 8, 3}, {64, 12, 9}, {1024, 16, 3}} {
		g := RandomRegular(tc.n, tc.d, tc.seed)
		for v := 0; v < g.N(); v++ {
			fmt.Fprint(h, g.Neighbors(v))
		}
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != digestRegular {
		t.Errorf("digest %s, want %s", got, digestRegular)
	}
}

// digestRegularDense pins RandomRegular(256, 128, 1), whose first shuffle
// needs many swaps: the repair's resumed scan must make the same draws as
// a scan that restarts from the first pair after every swap.
const digestRegularDense = "31260418438f34ac"

func TestRandomRegularDenseUnchanged(t *testing.T) {
	g := RandomRegular(256, 128, 1)
	h := sha256.New()
	for v := 0; v < g.N(); v++ {
		fmt.Fprint(h, g.Neighbors(v))
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != digestRegularDense {
		t.Errorf("digest %s, want %s", got, digestRegularDense)
	}
}
