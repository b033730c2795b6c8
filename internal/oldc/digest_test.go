package oldc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The digests below pin the observable output of Solve, SolveMulti and
// repairRegion: colorings, Stats and JSONL trace bytes. The seed
// references in golden_test.go derive families, type seeds, class
// candidates and wire bits through the same cover, analyzeNodeInto and
// bitio code as production, so a drift in any of those moves both sides of
// those comparisons alike; these fixed strings do not move with the code.
//
// The Δ=128 Solve runs over |C| = 2^15 with ≈3.5k-color lists, so every
// type message takes the characteristic-vector (bitset) encoding.
//
// The |C| = 2^20 Solve spreads each node's few-color list over the whole
// space: its lists take the sorted side of coloring.SquareSumOrientedRange,
// its nodes fall into four γ-classes, and nearly every C_v spans more than
// 64·nextPow2(|C_v|) colors, so Phase II's filters take the hashed side.
// It was recorded at d220d0e and is checked at workers 1, 2 and 4.
const (
	digestSolveD128      = "4b3a079c4446fa3c"
	digestSolveMultiGap1 = "495ec05441ed91ee"
	digestRepairRegion   = "4572c9c14c6016b1"
	digestSolveWide      = "48b1e71359da3988"
)

// digest hashes the %#v rendering of each part (byte slices raw), so any
// change to a Stats field, a coloring entry or a trace byte changes it.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		if b, ok := p.([]byte); ok {
			h.Write(b)
		} else {
			fmt.Fprintf(h, "%#v", p)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func checkDigest(t *testing.T, tag, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: digest %s, want %s", tag, got, want)
	}
}

// closeTrace appends the run totals and flushes the tracer.
func closeTrace(t *testing.T, tr *obs.JSONL, stats sim.Stats) {
	t.Helper()
	tr.End(stats.TraceTotals())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// identityInput builds an OLDC input with the node ids as the initial
// proper coloring, as the Solve microbenchmarks do.
func identityInput(o *graph.Oriented, space int, kappa float64, maxDefect int, seed int64) Input {
	init, m := identityColoring(o.Graph())
	inst := coloring.SquareSumOriented(o, space, kappa, maxDefect, seed)
	return Input{O: o, SpaceSize: space, Lists: inst.Lists, InitColors: init, M: m}
}

// permutedCirculant returns the circulant graph C_n(1..d/2), a d-regular
// graph, with its node ids randomly permuted, so that a by-id orientation
// gives every node a different out-degree mix. It builds in milliseconds
// where graph.RandomRegular(256, 128) takes seconds.
func permutedCirculant(n, d int, seed int64) *graph.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for k := 1; k <= d/2; k++ {
			b.AddEdge(perm[v], perm[(v+k)%n])
		}
	}
	return b.Build()
}

func TestDigestSolveDelta128(t *testing.T) {
	g := permutedCirculant(256, 128, 1)
	in := identityInput(graph.OrientByID(g), 1<<15, 6.0, 3, 7)
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	phi, stats, err := Solve(sim.NewEngineWith(g, sim.Options{Tracer: tr}), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxMessageBits <= in.SpaceSize {
		t.Fatalf("largest message %d bits: no type message took the bitset encoding", stats.MaxMessageBits)
	}
	closeTrace(t, tr, stats)
	checkDigest(t, "Solve Δ=128", digest(phi, stats, buf.Bytes()), digestSolveD128)
}

func TestDigestSolveWideSpace(t *testing.T) {
	g := graph.GNP(192, 0.2, 1)
	in := identityInput(graph.OrientByID(g), 1<<20, 6.0, 3, 9)
	for _, w := range []int{1, 2, 4} {
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		phi, stats, err := Solve(sim.NewEngineWith(g, sim.Options{Workers: w, Tracer: tr}), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		closeTrace(t, tr, stats)
		checkDigest(t, fmt.Sprintf("Solve |C|=2^20, workers=%d", w), digest(phi, stats, buf.Bytes()), digestSolveWide)
	}
}

func TestDigestSolveMultiGap1(t *testing.T) {
	g := graph.GNP(96, 0.12, 21)
	o := graph.OrientByID(g)
	in := identityInput(o, 1<<12, 6.0, 2, 23)
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	phi, stats, err := SolveMulti(sim.NewEngineWith(g, sim.Options{Tracer: tr}), in, Options{Gap: 1, SkipValidate: true})
	if err != nil {
		t.Fatal(err)
	}
	closeTrace(t, tr, stats)
	checkDigest(t, "SolveMulti gap 1", digest(phi, stats, buf.Bytes()), digestSolveMultiGap1)
}

// TestDigestRepairRegion re-solves a 24-node region of a solved instance,
// whose region colors were wiped to one shared color, with repairRegion.
func TestDigestRepairRegion(t *testing.T) {
	g := graph.RandomRegular(128, 16, 31)
	o := graph.OrientByID(g)
	in := identityInput(o, 1<<12, 6.0, 3, 33)
	phi, _, err := Solve(sim.NewEngine(g), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	region := make([]int, 0, 24)
	for v := 40; v < 64; v++ {
		region = append(region, v)
		phi[v] = in.Lists[v].Colors[0]
	}
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	stats, err := repairRegion(in, phi, region, cover.Params{}, sim.Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	closeTrace(t, tr, stats)
	checkDigest(t, "repairRegion", digest(phi, stats, buf.Bytes()), digestRepairRegion)
}
