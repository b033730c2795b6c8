package maus21

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

type goldenInstance struct {
	name string
	g    *graph.Graph
	k    int
}

func goldenInstances() []goldenInstance {
	return []goldenInstance{
		{"regular-48-8-k4", graph.RandomRegular(48, 8, 3), 4},
		{"gnp-64-k2", graph.GNP(64, 0.15, 5), 2},
		{"tree-40-linial", graph.RandomTree(40, 3), 0}, // k=0 → d=0 path
	}
}

func digest(phi coloring.Assignment, colors int, stats sim.Stats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%d|%+v", []int(phi), colors, stats)
	return h.Sum64()
}

// goldenDigests pins the maus21 output per instance: any change to the
// observable behavior (coloring, palette bound, or Stats) must update
// these deliberately.
var goldenDigests = map[string]uint64{
	"regular-48-8-k4": 0x1a9e4db9b4862f12,
	"gnp-64-k2":       0x40111d9aaafcb45f,
	"tree-40-linial":  0xa295f371ddce69f8,
}

// TestGoldenBitIdentity pins Solve to the embedded digests and checks the
// output is bit-identical across engine worker counts.
func TestGoldenBitIdentity(t *testing.T) {
	for _, tc := range goldenInstances() {
		t.Run(tc.name, func(t *testing.T) {
			ref := sim.NewEngine(tc.g)
			ref.SetWorkers(1)
			wantPhi, wantColors, wantStats, err := Solve(ref, tc.g, Options{K: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digest(wantPhi, wantColors, wantStats), goldenDigests[tc.name]; got != want {
				t.Errorf("golden digest drifted: got %#x want %#x", got, want)
			}
			for _, workers := range []int{2, 4, 7, 0} {
				eng := sim.NewEngine(tc.g)
				if workers > 0 {
					eng.SetWorkers(workers)
				}
				phi, colors, stats, err := Solve(eng, tc.g, Options{K: tc.k})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantPhi, phi) || colors != wantColors {
					t.Errorf("workers=%d: output diverges", workers)
				}
				if !reflect.DeepEqual(wantStats, stats) {
					t.Errorf("workers=%d: stats diverge:\n want %+v\n  got %+v", workers, wantStats, stats)
				}
			}
		})
	}
}

// TestKnobValidity sweeps the k knob over random graphs: the output must
// be proper (Solve validates internally) and honor the q₁·(d+1) palette
// bound it reports.
func TestKnobValidity(t *testing.T) {
	f := func(nRaw, pRaw, kRaw uint8, seed int64) bool {
		n := int(nRaw)%60 + 4
		p := 0.05 + float64(pRaw%80)/100
		g := graph.GNP(n, p, seed)
		k := int(kRaw)%(g.MaxDegree()+2) + 1
		phi, colors, _, err := Solve(sim.NewEngine(g), g, Options{K: k})
		if err != nil {
			t.Logf("n=%d p=%.2f k=%d seed=%d: %v", n, p, k, seed, err)
			return false
		}
		for _, c := range phi {
			if c < 0 || c >= colors {
				return false
			}
		}
		return coloring.CheckProper(g, phi, colors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDefectFor pins the knob arithmetic.
func TestDefectFor(t *testing.T) {
	for _, tc := range []struct{ maxDeg, k, want int }{
		{8, 2, 3},   // ⌈8/2⌉−1
		{8, 3, 2},   // ⌈8/3⌉ = 3
		{8, 8, 0},   // k ≥ Δ
		{8, 100, 0}, // k ≥ Δ
		{8, 0, 0},   // default
		{128, 2, 63},
		{7, 2, 3}, // ⌈7/2⌉ = 4
	} {
		if got := DefectFor(tc.maxDeg, tc.k); got != tc.want {
			t.Errorf("DefectFor(%d,%d)=%d want %d", tc.maxDeg, tc.k, got, tc.want)
		}
	}
}

// TestColorsShrinkWithK checks the trade-off direction on a dense graph:
// smaller k must not use more colors than plain Linial (k = Δ).
func TestColorsShrinkWithK(t *testing.T) {
	g := graph.RandomRegular(512, 8, 9)
	_, linialColors, _, err := Solve(sim.NewEngine(g), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tradeColors, _, err := Solve(sim.NewEngine(g), g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tradeColors >= linialColors {
		t.Errorf("k=4 palette %d not smaller than Linial's %d", tradeColors, linialColors)
	}
}
