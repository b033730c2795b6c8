package chaos

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

func TestDropDeterministicAndRateSane(t *testing.T) {
	m := Drop(42, 0.1)
	dropped, total := 0, 0
	for round := 0; round < 50; round++ {
		for from := 0; from < 20; from++ {
			for to := 0; to < 20; to++ {
				out1, _ := m.Wire(round, from, to)
				out2, _ := m.Wire(round, from, to)
				if out1 != out2 {
					t.Fatalf("Wire(%d,%d,%d) not deterministic", round, from, to)
				}
				total++
				if out1 == sim.FaultDrop {
					dropped++
				}
			}
		}
	}
	rate := float64(dropped) / float64(total)
	if math.Abs(rate-0.1) > 0.02 {
		t.Fatalf("drop rate %.4f far from 0.1 over %d wires", rate, total)
	}
}

func TestDropEdgeProbabilities(t *testing.T) {
	always := Drop(1, 1)
	never := Drop(1, 0)
	for round := 0; round < 10; round++ {
		if out, _ := always.Wire(round, 0, 1); out != sim.FaultDrop {
			t.Fatal("p=1 must drop everything")
		}
		if out, _ := never.Wire(round, 0, 1); out != sim.FaultNone {
			t.Fatal("p=0 must drop nothing")
		}
	}
}

func TestFlipEmitsSalt(t *testing.T) {
	m := Flip(7, 1)
	out, salt1 := m.Wire(3, 1, 2)
	if out != sim.FaultCorrupt {
		t.Fatalf("outcome = %v, want corrupt", out)
	}
	_, salt2 := m.Wire(4, 1, 2)
	if salt1 == salt2 {
		t.Fatal("salt should vary with the round")
	}
}

func TestCrashWindow(t *testing.T) {
	m := CrashWindow(3, 2, 5)
	for round := 0; round < 8; round++ {
		out, _ := m.Wire(round, 3, 0)
		want := sim.FaultNone
		if round >= 2 && round < 5 {
			want = sim.FaultDrop
		}
		if out != want {
			t.Fatalf("round %d: outcome %v, want %v", round, out, want)
		}
		if other, _ := m.Wire(round, 0, 3); other != sim.FaultNone {
			t.Fatalf("round %d: inbound wire to the crashed node must deliver", round)
		}
	}
	forever := Crash(3, 2)
	if out, _ := forever.Wire(1000, 3, 0); out != sim.FaultDrop {
		t.Fatal("Crash must never recover")
	}
}

func TestCutSet(t *testing.T) {
	m := CutSet([][2]int{{0, 1}, {2, 3}})
	if out, _ := m.Wire(0, 0, 1); out != sim.FaultDrop {
		t.Fatal("listed wire must drop")
	}
	if out, _ := m.Wire(0, 1, 0); out != sim.FaultNone {
		t.Fatal("reverse direction is a different wire")
	}
	if out, _ := m.Wire(9, 2, 3); out != sim.FaultDrop {
		t.Fatal("cut set is round-independent")
	}
}

func TestHeavyHittersTargetsTopDegrees(t *testing.T) {
	g := star(10) // node 0 has degree 9, everyone else degree 1
	m := HeavyHitters(g, 1, 5, 1)
	if out, _ := m.Wire(0, 0, 4); out != sim.FaultDrop {
		t.Fatal("the hub must be targeted")
	}
	if out, _ := m.Wire(0, 4, 0); out != sim.FaultNone {
		t.Fatal("leaves must not be targeted with k=1")
	}
}

func TestHeavyHittersTieBreak(t *testing.T) {
	// All nodes of a path's interior share degree 2; ties break to small ids.
	g := path(6)
	m := HeavyHitters(g, 1, 5, 1)
	if out, _ := m.Wire(0, 1, 2); out != sim.FaultDrop {
		t.Fatal("tie-break should pick node 1 (smallest interior id)")
	}
	if out, _ := m.Wire(0, 2, 3); out != sim.FaultNone {
		t.Fatal("node 2 loses the tie-break")
	}
}

func TestComposePrecedence(t *testing.T) {
	m := Compose(CrashWindow(0, 0, -1), Flip(9, 1))
	// Wire from node 0: the crash (earlier model) wins over the flip.
	if out, _ := m.Wire(0, 0, 1); out != sim.FaultDrop {
		t.Fatal("earlier model must win")
	}
	// Other wires fall through to the flip.
	if out, _ := m.Wire(0, 1, 0); out != sim.FaultCorrupt {
		t.Fatal("later models must be consulted on fall-through")
	}
}

func TestParse(t *testing.T) {
	g := star(8)
	for _, spec := range []string{
		"drop:0.05",
		"flip:0.01",
		"crash:3@2",
		"crash:3@2-5",
		"heavy:2:0.5",
		"drop:0.05+flip:0.01+crash:0@1",
	} {
		if _, err := ParsePlan(spec, 1, g); err != nil {
			t.Fatalf("ParsePlan(%q) = %v", spec, err)
		}
	}
	for _, spec := range []string{
		"", "bogus:1", "drop:1.5", "drop:x", "crash:3", "crash:-1@0",
		"crash:3@5-2", "heavy:0:0.5", "heavy:2", "drop:0.1++flip:0.1",
	} {
		if _, err := ParsePlan(spec, 1, g); err == nil {
			t.Fatalf("ParsePlan(%q) should fail", spec)
		}
	}
	if _, err := ParsePlan("heavy:2:0.5", 1, nil); err == nil {
		t.Fatal("heavy without a graph should fail")
	}
}

func TestParseCrashWindowSemantics(t *testing.T) {
	p, err := ParsePlan("crash:4@1-3", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Model
	if out, _ := m.Wire(0, 4, 0); out != sim.FaultNone {
		t.Fatal("round 0: not yet crashed")
	}
	if out, _ := m.Wire(2, 4, 0); out != sim.FaultDrop {
		t.Fatal("round 2: crashed")
	}
	if out, _ := m.Wire(3, 4, 0); out != sim.FaultNone {
		t.Fatal("round 3: recovered")
	}
}

func TestBuiltinSchedules(t *testing.T) {
	g := star(16)
	scheds := Builtin(g, 99)
	if len(scheds) < 5 {
		t.Fatalf("only %d builtin schedules", len(scheds))
	}
	seen := map[string]bool{}
	for _, s := range scheds {
		if s.Name == "" || s.Model == nil {
			t.Fatalf("bad schedule %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate schedule name %q", s.Name)
		}
		seen[s.Name] = true
		// Every model is a pure function of its arguments: the engine asks
		// it about each wire up to twice per round, once to account the
		// wire and once to gather it, and relies on equal answers.
		for round := 0; round < 4; round++ {
			for from := 0; from < g.N(); from++ {
				for _, to := range g.Neighbors(from) {
					o1, s1 := s.Model.Wire(round, from, int(to))
					o2, s2 := s.Model.Wire(round, from, int(to))
					if o1 != o2 || s1 != s2 {
						t.Fatalf("%s: Wire(%d, %d, %d) gave (%v, %d), then (%v, %d)", s.Name, round, from, to, o1, s1, o2, s2)
					}
				}
			}
		}
	}
	// cut-heaviest must sever the hub's outgoing arcs.
	for _, s := range scheds {
		if s.Name == "cut-heaviest" {
			if out, _ := s.Model.Wire(0, 0, 5); out != sim.FaultDrop {
				t.Fatal("cut-heaviest must drop the hub's outgoing wires")
			}
		}
	}
}

func TestWireHashUniformish(t *testing.T) {
	// Weak avalanche check: flipping one coordinate changes about half the bits.
	base := wireHash(1, 2, 3, 4)
	for _, h := range []uint64{
		wireHash(2, 2, 3, 4), wireHash(1, 3, 3, 4),
		wireHash(1, 2, 4, 4), wireHash(1, 2, 3, 5),
	} {
		d := popcount(base ^ h)
		if d < 10 || d > 54 {
			t.Fatalf("poor diffusion: %d differing bits", d)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
