// Package chaos provides structured, composable, seed-deterministic fault
// schedules for the simulator (sim.FaultModel implementations). The
// paper's algorithms assume a fault-free synchronous CONGEST network;
// chaos is how the repository measures what happens when that assumption
// breaks — i.i.d. message loss, targeted per-wire adversaries, node
// crashes (with optional recovery), and bit-flip payload corruption.
//
// Every model is a pure function of (schedule parameters, round, from,
// to): two runs with the same seed, graph, and worker count see the exact
// same fault pattern, and the pattern is independent of the engine's
// worker count. The engine asks the model about every wire at most twice
// per round, once when it accounts the wire and once more when it gathers
// the receiver's inbox, which it skips for a receiver that ignores its
// inbox (sim.Outbox.IgnoreInbox), and purity is what makes both answers
// agree. Randomized models derive their
// decisions from a splitmix64-style hash of (seed, round, from, to) rather
// than any stateful RNG, which is what makes them safe for concurrent use
// from the engine's shard workers.
//
// Models compose with Compose (first non-deliver outcome wins), and the
// standard ones parse from compact spec strings (ParsePlan) so CLI tools can
// inject faults without bespoke flags. See docs/SIMULATOR.md §"Fault
// model" for the taxonomy and determinism guarantees.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/sim"
)

// wireHash mixes (seed, round, from, to) into 64 uniform bits (splitmix64
// finalizer over a linear combination of the coordinates). It is the only
// source of randomness in the package.
func wireHash(seed uint64, round, from, to int) uint64 {
	x := seed
	x += uint64(round)*0x9e3779b97f4a7c15 + uint64(from)*0xbf58476d1ce4e5b9 + uint64(to)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hits converts a hash to a Bernoulli(p) decision.
func hits(h uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(h>>11)/(1<<53) < p
}

// Func adapts a plain function to sim.FaultModel.
type Func func(round, from, to int) (sim.FaultOutcome, uint64)

// Wire implements sim.FaultModel.
func (f Func) Wire(round, from, to int) (sim.FaultOutcome, uint64) { return f(round, from, to) }

// Drop returns an i.i.d. message-loss model: every wire in every round is
// dropped independently with probability p.
func Drop(seed uint64, p float64) sim.FaultModel {
	return Func(func(round, from, to int) (sim.FaultOutcome, uint64) {
		if hits(wireHash(seed, round, from, to), p) {
			return sim.FaultDrop, 0
		}
		return sim.FaultNone, 0
	})
}

// Flip returns an i.i.d. corruption model: every wire in every round is
// bit-flipped independently with probability p. The flipped bit position
// is derived from a second hash so that it is independent of the hit
// decision.
func Flip(seed uint64, p float64) sim.FaultModel {
	return Func(func(round, from, to int) (sim.FaultOutcome, uint64) {
		h := wireHash(seed, round, from, to)
		if hits(h, p) {
			return sim.FaultCorrupt, wireHash(seed^0xc2b2ae3d27d4eb4f, round, from, to)
		}
		return sim.FaultNone, 0
	})
}

// CrashWindow silences node v's outgoing wires in rounds [from, until);
// until < 0 means forever (a plain crash). Inbound wires still deliver —
// a crashed CONGEST node stops sending, it does not unplug its neighbors.
func CrashWindow(v, from, until int) sim.FaultModel {
	return Func(func(round, sender, _ int) (sim.FaultOutcome, uint64) {
		if sender == v && round >= from && (until < 0 || round < until) {
			return sim.FaultDrop, 0
		}
		return sim.FaultNone, 0
	})
}

// Crash silences node v from the given round onward.
func Crash(v, from int) sim.FaultModel { return CrashWindow(v, from, -1) }

// CutSet drops every listed directed wire (from, to) in every round: a
// targeted adversary severing a fixed set of communication arcs.
func CutSet(wires [][2]int) sim.FaultModel {
	cut := make(map[[2]int]bool, len(wires))
	for _, w := range wires {
		cut[w] = true
	}
	return Func(func(_, from, to int) (sim.FaultOutcome, uint64) {
		if cut[[2]int{from, to}] {
			return sim.FaultDrop, 0
		}
		return sim.FaultNone, 0
	})
}

// HeavyHitters targets the k heaviest-degree senders of g (ties broken by
// smaller id): each of their outgoing wires is dropped independently with
// probability p. This is the adversary that hurts most in defective
// coloring — high-degree nodes carry the most conflict information.
func HeavyHitters(g *graph.Graph, k int, seed uint64, p float64) sim.FaultModel {
	targets := heaviest(g, k)
	return Func(func(round, from, to int) (sim.FaultOutcome, uint64) {
		if targets[from] && hits(wireHash(seed, round, from, to), p) {
			return sim.FaultDrop, 0
		}
		return sim.FaultNone, 0
	})
}

// heaviest returns the membership set of the k highest-degree nodes,
// breaking degree ties toward smaller ids for determinism.
func heaviest(g *graph.Graph, k int) map[int]bool {
	if k > g.N() {
		k = g.N()
	}
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = v
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	set := make(map[int]bool, k)
	for _, v := range ids[:k] {
		set[v] = true
	}
	return set
}

// Compose chains fault models: for each wire the models are consulted in
// order and the first non-FaultNone outcome wins, so earlier models take
// precedence (e.g. a crash shadows an i.i.d. drop on the same wire).
func Compose(models ...sim.FaultModel) sim.FaultModel {
	if len(models) == 1 {
		return models[0]
	}
	return Func(func(round, from, to int) (sim.FaultOutcome, uint64) {
		for _, m := range models {
			if out, salt := m.Wire(round, from, to); out != sim.FaultNone {
				return out, salt
			}
		}
		return sim.FaultNone, 0
	})
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("bad probability %q (want [0,1])", s)
	}
	return p, nil
}

// Named pairs a fault schedule with a stable identifier for benchmarks.
type Named struct {
	Name  string
	Model sim.FaultModel
	// Corrupting marks schedules that corrupt message payloads (flip
	// terms). Drivers must not run them against algorithms without
	// hardened decode paths.
	Corrupting bool
}

// Builtin returns the standard chaos-bench fault schedules over g, from
// gentle i.i.d. loss to combined crash+loss+corruption adversaries. The
// set is the robustness regression surface: `ldc-bench -suite chaos`
// runs oldc.SolveRobust under each and records survival and repair effort.
func Builtin(g *graph.Graph, seed uint64) []Named {
	heavyNode := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(heavyNode) {
			heavyNode = v
		}
	}
	var cut [][2]int
	for _, u := range g.Neighbors(heavyNode) {
		cut = append(cut, [2]int{heavyNode, int(u)})
	}
	return []Named{
		{Name: "drop-1pct", Model: Drop(seed, 0.01)},
		{Name: "drop-10pct", Model: Drop(seed+1, 0.10)},
		{Name: "flip-1pct", Model: Flip(seed+2, 0.01), Corrupting: true},
		{Name: "flip-10pct", Model: Flip(seed+3, 0.10), Corrupting: true},
		{Name: "heavy-4-half", Model: HeavyHitters(g, 4, seed+4, 0.5)},
		{Name: "cut-heaviest", Model: CutSet(cut)},
		{Name: "crash-heaviest", Model: Crash(heavyNode, 1)},
		{Name: "crash-recover", Model: CrashWindow(heavyNode, 0, 2)},
		{Name: "storm", Model: Compose(Crash(heavyNode, 1), Drop(seed+5, 0.05), Flip(seed+6, 0.02)), Corrupting: true},
	}
}
