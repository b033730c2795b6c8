package baseline

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// DegreeLuby computes a proper coloring with deg(v)+1 local palettes — the
// degree+1-list special case every node can satisfy by pigeonhole — using
// the same randomized-trial schedule as Luby. It exists for graphs too
// large for Luby's global-palette bookkeeping: per-node work is O(deg(v))
// per round instead of O(Δ), decided nodes announce their color exactly
// once and then go silent (so late rounds touch only the undecided
// residue), and messages are varint-coded, sized by the sender's degree
// rather than Δ. On a power-law graph with a few hub nodes these three
// changes are the difference between an O(n·Δ)-per-round loop and one
// proportional to the remaining conflict graph.
//
// Like Luby it is a pure function of (g, seed): the coloring is identical
// for every worker count.
func DegreeLuby(r sim.Runner, g *graph.Graph, seed int64) (coloring.Assignment, sim.Stats, error) {
	alg := NewDegreeLuby(g, seed)
	stats, err := r.Run(alg, DegreeLubyMaxRounds(g.N()))
	if err != nil {
		return nil, stats, err
	}
	phi := alg.Colors()
	if err := coloring.CheckProper(g, phi, g.MaxDegree()+1); err != nil {
		return nil, stats, err
	}
	return phi, stats, nil
}

// DegreeLubyMaxRounds is the round budget DegreeLuby allows for an n-node
// graph — generous over the O(log n) expectation so a run that exceeds it
// indicates a bug, not bad luck. Exported so checkpoint/resume drivers
// (cmd/ldc-run) pass the identical budget on every attempt.
func DegreeLubyMaxRounds(n int) int { return 64*(intLog2(n)+2) + 64 }

// DegreeLubyAlg is the per-node state of DegreeLuby. Undecided node v
// proposes a uniform color from [0, deg(v)+1) minus the colors announced
// by decided neighbors; a proposal survives unless some neighbor message
// this round (a competing proposal or a decision announcement) carries the
// same color. Decided nodes broadcast (decided=1, color) once and then
// send nothing, so the run quiesces when the last announcement lands.
//
// Randomness comes from one splitmix64 stream per node seeded by
// (seed, v), so the complete inter-round state is a few plain slices —
// that is what makes the algorithm a sim.Snapshotter and DegreeLuby the
// reference workload of the kill/resume golden tests.
type DegreeLubyAlg struct {
	rng       []uint64 // per-node splitmix64 state
	color     []int    // final color or -1
	proposal  []int    // this round's proposal
	taken     [][]bool // palette slots claimed by decided neighbors
	announced []bool   // decided nodes flip this after their one broadcast
	undecided int64    // updated single-threaded in Done
	started   bool
}

// NewDegreeLuby returns the DegreeLuby algorithm state for g, ready to
// run (or to restore a checkpoint into via RestoreState).
func NewDegreeLuby(g *graph.Graph, seed int64) *DegreeLubyAlg {
	n := g.N()
	a := &DegreeLubyAlg{
		rng:       make([]uint64, n),
		color:     make([]int, n),
		proposal:  make([]int, n),
		taken:     make([][]bool, n),
		announced: make([]bool, n),
		undecided: int64(n),
	}
	for v := 0; v < n; v++ {
		a.rng[v] = uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(v)*0xBF58476D1CE4E5B9 ^ 0x94D049BB133111EB
		a.color[v] = -1
		a.taken[v] = make([]bool, len(g.Neighbors(v))+1)
	}
	return a
}

// splitmix64 advances one node's PRNG state and returns the next draw
// (Steele–Lea–Flood finalizer; the state is a single uint64, which keeps
// snapshots trivial and draws allocation-free).
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Outbox implements sim.Algorithm.
func (a *DegreeLubyAlg) Outbox(v int, out *sim.Outbox) {
	if a.color[v] >= 0 {
		if !a.announced[v] {
			a.announced[v] = true
			out.Broadcast(sim.Composite{sim.UintPayload{Value: 1, Width: 1}, sim.VarintPayload{Value: uint64(a.color[v])}})
		}
		return
	}
	// Sample uniformly among free palette slots by index, without
	// materializing the free list: pigeonhole guarantees at least one of
	// the deg(v)+1 slots is untaken.
	taken := a.taken[v]
	free := 0
	for _, t := range taken {
		if !t {
			free++
		}
	}
	pick := int(splitmix64(&a.rng[v]) % uint64(free))
	for c, t := range taken {
		if t {
			continue
		}
		if pick == 0 {
			a.proposal[v] = c
			break
		}
		pick--
	}
	out.Broadcast(sim.Composite{sim.UintPayload{Value: 0, Width: 1}, sim.VarintPayload{Value: uint64(a.proposal[v])}})
}

// Inbox implements sim.Algorithm.
func (a *DegreeLubyAlg) Inbox(v int, in []sim.Received) {
	if a.color[v] >= 0 {
		return
	}
	taken := a.taken[v]
	ok := true
	for _, msg := range in {
		c := msg.Payload.(sim.Composite)
		val := int(c[1].(sim.VarintPayload).Value)
		if val == a.proposal[v] {
			ok = false
		}
		if c[0].(sim.UintPayload).Value == 1 && val < len(taken) {
			taken[val] = true
		}
	}
	if ok {
		a.color[v] = a.proposal[v]
	}
}

// Done implements sim.Algorithm. The scan over colors restarts from the
// undecided count so steady-state rounds stay O(1) once everyone decided.
func (a *DegreeLubyAlg) Done() bool {
	if !a.started {
		a.started = true
		return false
	}
	if a.undecided > 0 {
		var left int64
		for _, c := range a.color {
			if c < 0 {
				left++
			}
		}
		a.undecided = left
	}
	return a.undecided == 0
}

// Quiesced implements sim.Quiescent: once decided nodes have all announced
// the network goes silent, and a silent round with everyone colored is a
// valid termination.
func (a *DegreeLubyAlg) Quiesced() bool {
	for _, c := range a.color {
		if c < 0 {
			return false
		}
	}
	return true
}

// Colors returns the per-node colors (−1 for still-undecided nodes); the
// slice aliases the algorithm's state.
func (a *DegreeLubyAlg) Colors() coloring.Assignment { return coloring.Assignment(a.color) }

// SnapshotState implements sim.Snapshotter: the complete inter-round
// state is the per-node PRNG cursors, colors, proposals, claimed palette
// slots, announcement flags, and the Done bookkeeping.
func (a *DegreeLubyAlg) SnapshotState(e *ckpt.Encoder) {
	n := len(a.color)
	e.Uvarint(uint64(n))
	e.Bool(a.started)
	e.Int64(a.undecided)
	for v := 0; v < n; v++ {
		e.Uvarint(a.rng[v])
		e.Int(a.color[v])
		e.Int(a.proposal[v])
		e.Bool(a.announced[v])
		taken := a.taken[v]
		bits := make([]byte, (len(taken)+7)/8)
		for c, t := range taken {
			if t {
				bits[c/8] |= 1 << (c % 8)
			}
		}
		e.Bytes(bits)
	}
}

// RestoreState implements sim.Snapshotter. The receiver must be freshly
// constructed by NewDegreeLuby over the same topology and seed; every
// count and color range is validated so adversarial images fail with a
// typed error instead of corrupting state or panicking.
func (a *DegreeLubyAlg) RestoreState(d *ckpt.Decoder) error {
	n := len(a.color)
	if got := d.Uvarint(); d.Err() == nil && got != uint64(n) {
		return fmt.Errorf("baseline: checkpoint is for %d nodes, graph has %d", got, n)
	}
	a.started = d.Bool()
	a.undecided = d.Int64()
	if d.Err() == nil && (a.undecided < 0 || a.undecided > int64(n)) {
		return fmt.Errorf("baseline: checkpoint undecided count %d out of range", a.undecided)
	}
	for v := 0; v < n; v++ {
		a.rng[v] = d.Uvarint()
		a.color[v] = d.Int()
		a.proposal[v] = d.Int()
		a.announced[v] = d.Bool()
		bits := d.Bytes()
		if err := d.Err(); err != nil {
			return err
		}
		palette := len(a.taken[v])
		if a.color[v] < -1 || a.color[v] >= palette || a.proposal[v] < 0 || a.proposal[v] >= palette {
			return fmt.Errorf("baseline: checkpoint node %d color %d/proposal %d outside palette %d", v, a.color[v], a.proposal[v], palette)
		}
		if len(bits) != (palette+7)/8 {
			return fmt.Errorf("baseline: checkpoint node %d palette bitmap is %d bytes, want %d", v, len(bits), (palette+7)/8)
		}
		for c := range a.taken[v] {
			a.taken[v][c] = bits[c/8]&(1<<(c%8)) != 0
		}
	}
	return d.Err()
}

var _ sim.Snapshotter = (*DegreeLubyAlg)(nil)
var _ sim.Quiescent = (*DegreeLubyAlg)(nil)
