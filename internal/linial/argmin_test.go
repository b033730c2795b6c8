package linial

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/sim"
)

// argminSteps are the steps FuzzReduceArgmin draws from: the tiny fields of
// a schedule's last steps up to the GF(127) proper step that a Δ≈96
// graph's second stage runs, then the defective steps the Theorem 1.4
// pipeline runs on G(16384, 64/16383): (7,4) is stage 1's only step, the
// others come from later stages.
var argminSteps = []stepParams{
	{q: 2, deg: 1}, {q: 2, deg: 4}, {q: 3, deg: 2}, {q: 5, deg: 4}, {q: 7, deg: 3},
	{q: 11, deg: 2}, {q: 31, deg: 2}, {q: 47, deg: 2}, {q: 127, deg: 2},
	{q: 7, deg: 4}, {q: 7, deg: 5}, {q: 7, deg: 6}, {q: 5, deg: 5}, {q: 13, deg: 4},
	{q: 3, deg: 4}, {q: 2, deg: 3},
}

// Flags of an opponent record in FuzzReduceArgmin's encoding: every leaf of
// the star is three bytes, a little-endian color selector and a flag byte.
const (
	oppOwn        = 1 << iota // send the center's own color
	oppPrev                   // repeat the previous leaf's color
	oppVarint                 // send a VarintPayload instead of a UintPayload
	oppInArc                  // orient the edge leaf→center: not an opponent
	oppOtherClass             // put the leaf in class 1 (the center is in class 0)
	oppStale                  // send a color other than the leaf's current one
)

// oppRecord encodes one leaf for FuzzReduceArgmin.
func oppRecord(sel uint16, flags byte) []byte {
	return []byte{byte(sel), byte(sel >> 8), flags}
}

// fullScanArgmin is the reference reduction: count every opponent's
// collisions at every point with the naive polyEval — equal colors
// included, since they collide everywhere and so shift every count alike —
// then take the first point with the fewest.
func fullScanArgmin(c int, opps []int, sp stepParams) int {
	best, bestCnt := 0, -1
	for x := 0; x < sp.q; x++ {
		fx := polyEval(c, x, sp.q, sp.deg)
		cnt := 0
		for _, cu := range opps {
			if polyEval(cu, x, sp.q, sp.deg) == fx {
				cnt++
			}
		}
		if bestCnt < 0 || cnt < bestCnt {
			best, bestCnt = x, cnt
		}
	}
	return best*sp.q + polyEval(c, best, sp.q, sp.deg)
}

// checkReduceArgmin runs one round of reduceAlg at the center of a star
// built from the encoded leaves, in engine order — Outbox for every node,
// then the center's Inbox — and compares its choice with the full scan. A
// budget above 0 makes the step defective, so the center compares the
// leaves' stored value records; a stale leaf's message is evaluated from
// its payload instead.
func checkReduceArgmin(t *testing.T, pick, budget uint8, own uint32, classOn bool, recs []byte) {
	t.Helper()
	sp := argminSteps[int(pick)%len(argminSteps)]
	space := 1
	for i := 0; i <= sp.deg; i++ {
		space *= sp.q
	}
	k := min(len(recs)/3, 64)
	b := graph.NewBuilder(k + 1)
	for i := 1; i <= k; i++ {
		b.AddEdge(0, i)
	}
	colors := make([]int, k+1) // current colors
	sent := make([]int, k+1)   // the colors the messages carry
	class := make([]int, k+1)
	inArc := make([]bool, k+1)
	colors[0] = int(own % uint32(space))
	sent[0] = colors[0]
	in := make([]sim.Received, 0, k)
	var opps []int
	for i := 1; i <= k; i++ {
		r := recs[3*(i-1) : 3*i]
		flags := r[2]
		c := int(binary.LittleEndian.Uint16(r)) % space
		if flags&oppOwn != 0 {
			c = colors[0]
		} else if flags&oppPrev != 0 {
			c = sent[i-1]
		}
		sent[i], colors[i] = c, c
		if flags&oppStale != 0 {
			colors[i] = (c + 1) % space
		}
		inArc[i] = flags&oppInArc != 0
		if flags&oppOtherClass != 0 {
			class[i] = 1
		}
		var pay sim.Payload = sim.UintPayload{Value: uint64(c), Width: bitio.WidthFor(space)}
		if flags&oppVarint != 0 {
			pay = sim.VarintPayload{Value: uint64(c)}
		}
		in = append(in, sim.Received{From: i, Payload: pay})
		if !inArc[i] && flags&oppVarint == 0 && !(classOn && class[i] != 0) {
			opps = append(opps, c)
		}
	}
	o := graph.Orient(b.Build(), func(u, v int) bool { return (u == 0) != inArc[max(u, v)] })
	sched := Schedule{Steps: []stepParams{sp}, Budgets: []int{int(budget)}, Final: sp.q * sp.q}
	a := newReduceAlg(o, colors, space, sched)
	if classOn {
		a.class = class
	}
	var ob sim.Outbox
	for v := range colors {
		a.Outbox(v, &ob)
	}
	a.Inbox(0, in)
	if want := fullScanArgmin(colors[0], opps, sp); a.next[0] != want {
		t.Fatalf("q=%d deg=%d own=%d opponents=%v: next %d, full scan %d",
			sp.q, sp.deg, colors[0], opps, a.next[0], want)
	}
}

// FuzzReduceArgmin cross-checks both argmins of reduceAlg.Inbox — the
// early-exit scan of a proper step and the record compare of a defective
// one — against the full scan over fuzzer-chosen steps, budgets, colors
// and leaves: duplicates, copies of the node's own color, non-UintPayload
// payloads, in-arcs, other-class leaves and stale payloads.
func FuzzReduceArgmin(f *testing.F) {
	// GF(11), own color 0 (f ≡ 0) against constants 1, 2, 3: x = 0 is
	// already collision-free.
	f.Add(uint8(5), uint8(0), uint32(0), false,
		append(append(oppRecord(1, 0), oppRecord(2, 0)...), oppRecord(3, 0)...))
	// GF(2), own color 0 against f = x (collides at 0), f = 1+x (collides
	// at 1) and a copy of the own color: no point is collision-free, and
	// the first minimum is x = 0.
	f.Add(uint8(0), uint8(0), uint32(0), false,
		append(append(oppRecord(2, 0), oppRecord(3, 0)...), oppRecord(0, oppOwn)...))
	// GF(127), a stage-2 proper step with 40 leaves of every kind, class
	// filter on.
	rng := rand.New(rand.NewSource(1))
	var recs []byte
	for i := 0; i < 40; i++ {
		recs = append(recs, oppRecord(uint16(rng.Intn(1<<16)), byte(rng.Intn(32)))...)
	}
	f.Add(uint8(8), uint8(0), uint32(5000), true, recs)
	f.Add(uint8(4), uint8(16), uint32(77), false, recs)
	// GF(7), degree 4: the defective step stage 1 runs, where 64 leaves
	// leave no point collision-free and the scan never exits early.
	for i := 0; i < 24; i++ {
		recs = append(recs, oppRecord(uint16(rng.Intn(1<<16)), 0)...)
	}
	f.Add(uint8(9), uint8(3), uint32(9000), false, recs)
	// The same defective step with every fourth leaf stale: those leaves'
	// values come from their payloads, the rest from stored records.
	stale := append([]byte(nil), recs...)
	for i := 2; i < len(stale); i += 12 {
		stale[i] |= oppStale
	}
	f.Add(uint8(9), uint8(3), uint32(9000), false, stale)
	f.Fuzz(func(t *testing.T, pick, budget uint8, own uint32, classOn bool, recs []byte) {
		checkReduceArgmin(t, pick, budget, own, classOn, recs)
	})
}

// TestReduceArgminMatchesFullScan runs the fuzz target's check over a
// fixed random sweep, so every test run covers every step, proper and
// defective, with dense and sparse collisions.
func TestReduceArgminMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		recs := make([]byte, 3*rng.Intn(65))
		rng.Read(recs)
		for i := 2; i < len(recs); i += 3 {
			recs[i] &= byte(rng.Intn(64)) // mostly plain opponents
		}
		checkReduceArgmin(t, uint8(iter), uint8(rng.Intn(4)), rng.Uint32(), iter%3 == 0, recs)
	}
}
