package coloring

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// digestSquareSum pins every Colors and Defect slice SquareSumOrientedRange
// draws for the list parameters of the oldc-d128 benchmark workload, the
// serve defaults and ldc-run, the lists of a graph with isolated nodes,
// lists over spaces of 2^20 and 2^24 colors, and the error of an
// exhausted space. It was recorded before the lists were drawn into a
// bitset instead of a map per node.
const digestSquareSum = "ef4c478f39a9279c"

func TestSquareSumListsDigest(t *testing.T) {
	// Nodes 0, 3 and 7 are isolated; β_v = max(1, outdeg) still asks each
	// for a list, and κ = 0 asks no node for one.
	sparse := graph.NewBuilder(10).AddEdge(1, 2).AddEdge(2, 4).AddEdge(5, 6).AddEdge(1, 9).AddEdge(4, 8).Build()
	cases := []struct {
		g                    *graph.Graph
		space                int
		kappa                float64
		minDefect, maxDefect int
		seed                 int64
	}{
		{graph.RandomRegular(256, 128, 1), 1 << 15, 6, 0, 3, 7},     // oldc-d128
		{graph.RandomRegular(512, 32, 2), 4096, 5, 1, 2, 1},         // serve defaults
		{graph.RandomRegular(64, 6, 1), 4096, 5, 1, 3, 1},           // ldc-run defaults
		{graph.GNP(400, 0.05, 9), 4096, 5, 1, 3, 13},                // ldc-run
		{graph.PreferentialAttachment(300, 4, 3), 1024, 2, 2, 2, 5}, // one defect
		{sparse, 64, 3, 0, 3, 11},
		{sparse, 64, 0, 0, 3, 11},
		// Spaces far larger than the lists, which are sorted rather than
		// read off the set of drawn colors.
		{graph.GNP(400, 0.05, 9), 1 << 20, 5, 1, 3, 13},
		{graph.RandomRegular(64, 6, 1), 1 << 24, 5, 0, 3, 3}, // MaxListSpace
	}
	h := sha256.New()
	var buf []byte
	for i, c := range cases {
		o := graph.OrientByID(c.g)
		in, err := SquareSumOrientedRange(o, c.space, c.kappa, c.minDefect, c.maxDefect, c.seed)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for v, l := range in.Lists {
			if c.kappa == 0 && (l.Colors != nil || l.Defect != nil) {
				t.Fatalf("case %d: κ = 0 gave node %d the list %v, want nil slices", i, v, l)
			}
			buf = binary.AppendVarint(buf[:0], int64(len(l.Colors)))
			for j := range l.Colors {
				buf = binary.AppendVarint(buf, int64(l.Colors[j]))
				buf = binary.AppendVarint(buf, int64(l.Defect[j]))
			}
			h.Write(buf)
		}
	}
	_, err := SquareSumOrientedRange(graph.OrientByID(graph.Clique(200)), 4096, 50, 1, 3, 1)
	var se *ErrSpaceExhausted
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ErrSpaceExhausted", err)
	}
	fmt.Fprintf(h, "%+v", *se)
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != digestSquareSum {
		t.Errorf("digest %s, want %s", got, digestSquareSum)
	}
}
