// Package mis implements maximal independent set algorithms built on the
// coloring stack — the canonical downstream application of distributed
// coloring (a proper k-coloring yields an MIS in k rounds by processing
// one color class per round), plus Luby's randomized MIS as the reference
// point. The deterministic route composed with the paper's Theorem 1.4
// pipeline gives a deterministic MIS in √Δ·polylog Δ + O(log* n) + Δ+1
// rounds.
package mis

import (
	"fmt"

	"math/rand"
	"repro/internal/bitio"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Check verifies that set is a maximal independent set of g.
func Check(g *graph.Graph, set []bool) error {
	if len(set) != g.N() {
		return fmt.Errorf("mis: set over %d nodes, graph has %d", len(set), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if set[v] {
			for _, u := range g.Neighbors(v) {
				if set[u] {
					return fmt.Errorf("mis: adjacent nodes %d and %d both in set", v, u)
				}
			}
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if set[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("mis: node %d is neither in the set nor dominated", v)
		}
	}
	return nil
}

// FromColoring turns a proper coloring with numColors colors into an MIS in
// numColors rounds: color classes join greedily in increasing color order
// unless a neighbor already joined.
func FromColoring(eng *sim.Engine, g *graph.Graph, colors []int, numColors int) ([]bool, sim.Stats, error) {
	alg := &classAlg{colors: colors, in: make([]int8, g.N())}
	stats, err := eng.Run(alg, numColors+2)
	if err != nil {
		return nil, stats, err
	}
	set := make([]bool, g.N())
	for v, s := range alg.in {
		if s == 0 {
			return nil, stats, fmt.Errorf("mis: node %d undecided", v)
		}
		set[v] = s == 1
	}
	if err := Check(g, set); err != nil {
		return nil, stats, err
	}
	return set, stats, nil
}

// classAlg: in round c+1 the nodes of color class c decide; joined nodes
// announce once, knocking their neighbors out.
type classAlg struct {
	colors  []int
	in      []int8 // 0 undecided, 1 in, -1 out
	round   int
	started bool
}

func (a *classAlg) Outbox(v int, out *sim.Outbox) {
	if a.in[v] != 0 {
		out.IgnoreInbox()
	}
	if a.in[v] == 1 && a.joinedAt(v) == a.round-1 {
		out.Broadcast(sim.UintPayload{Value: 1, Width: 1})
	}
}

// joinedAt: a node of color c joins (if at all) in round c+1.
func (a *classAlg) joinedAt(v int) int { return a.colors[v] + 1 }

func (a *classAlg) Inbox(v int, in []sim.Received) {
	if a.in[v] != 0 {
		return
	}
	if len(in) > 0 {
		a.in[v] = -1 // a neighbor joined
		return
	}
	if a.colors[v] == a.round-1 {
		a.in[v] = 1
	}
}

func (a *classAlg) Done() bool {
	if !a.started {
		a.started = true
		a.round = 1
		return false
	}
	a.round++
	for _, s := range a.in {
		if s == 0 {
			return false
		}
	}
	return true
}

// Deterministic computes an MIS deterministically by running the paper's
// Theorem 1.4 (Δ+1)-coloring pipeline and then FromColoring.
func Deterministic(g *graph.Graph) ([]bool, sim.Stats, error) {
	res, err := congest.DeltaPlusOne(g, congest.Config{})
	if err != nil {
		return nil, res.Stats, err
	}
	set, s2, err := FromColoring(sim.NewEngine(g), g, res.Phi, g.MaxDegree()+1)
	return set, res.Stats.Add(s2), err
}

// Luby computes an MIS with Luby's randomized algorithm: every undecided
// node draws a random priority; local maxima join, their neighbors drop
// out. O(log n) rounds w.h.p.
func Luby(eng *sim.Engine, g *graph.Graph, seed int64) ([]bool, sim.Stats, error) {
	n := g.N()
	alg := &lubyMISAlg{in: make([]int8, n), prio: make([]uint32, n), rng: make([]*rand.Rand, n),
		width: 31} // priorities are Int31 draws
	for v := 0; v < n; v++ {
		alg.rng[v] = rand.New(rand.NewSource(seed*65_537 + int64(v)))
	}
	stats, err := eng.Run(alg, 64*(bitio.WidthFor(n)+2)+64)
	if err != nil {
		return nil, stats, err
	}
	set := make([]bool, n)
	for v, s := range alg.in {
		set[v] = s == 1
	}
	if err := Check(g, set); err != nil {
		return nil, stats, err
	}
	return set, stats, nil
}

type lubyMISAlg struct {
	in      []int8
	prio    []uint32
	rng     []*rand.Rand
	width   int
	started bool
}

// message: (state 2 bits: 0 undecided / 1 in / 2 out, priority).
type lubyMsg struct {
	state uint
	prio  uint32
	width int
}

func (m lubyMsg) EncodeBits(w *bitio.Writer) {
	w.WriteUint(uint64(m.state), 2)
	w.WriteUint(uint64(m.prio), m.width)
}

func (a *lubyMISAlg) Outbox(v int, out *sim.Outbox) {
	switch a.in[v] {
	case 1:
		out.IgnoreInbox()
		out.Broadcast(lubyMsg{state: 1, width: a.width})
	case -1:
		out.IgnoreInbox() // out nodes are silent
	default:
		a.prio[v] = uint32(a.rng[v].Int31())
		out.Broadcast(lubyMsg{state: 0, prio: a.prio[v], width: a.width})
	}
}

func (a *lubyMISAlg) Inbox(v int, in []sim.Received) {
	if a.in[v] != 0 {
		return
	}
	localMax := true
	for _, msg := range in {
		m := msg.Payload.(lubyMsg)
		if m.state == 1 {
			a.in[v] = -1
			return
		}
		if m.state == 0 && (m.prio > a.prio[v] || (m.prio == a.prio[v] && msg.From > v)) {
			localMax = false
		}
	}
	if localMax {
		a.in[v] = 1
	}
}

func (a *lubyMISAlg) Done() bool {
	if !a.started {
		a.started = true
		return false
	}
	for _, s := range a.in {
		if s == 0 {
			return false
		}
	}
	return true
}
