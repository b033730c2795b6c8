package baseline

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestRestoreRejectsFullPalette checks that an image claiming every
// palette slot of a node fails to restore: Outbox draws modulo the free
// slots, and a valid run leaves at least one.
func TestRestoreRejectsFullPalette(t *testing.T) {
	g := graph.Ring(4)
	e := ckpt.NewRawEncoder()
	e.Uvarint(4)
	e.Bool(true)
	e.Int64(4)
	for v := 0; v < 4; v++ {
		e.Uvarint(1)
		e.Int(-1)
		e.Int(0)
		e.Bool(false)
		bits := byte(0b011)
		if v == 2 {
			bits = 0b111
		}
		e.Bytes([]byte{bits})
	}
	err := NewDegreeLuby(g, 1).RestoreState(ckpt.NewRawDecoder(e.Finish()))
	if err == nil || !strings.Contains(err.Error(), "node 2 has all 3 palette slots claimed") {
		t.Fatalf("restore error %v, want node 2's full palette refused", err)
	}
}

// BenchmarkDegreeLuby times one DegreeLuby coloring of G(16384, 64/16383)
// on a reused engine: engine routing and the algorithm's own per-node
// work, with routing state sized once.
func BenchmarkDegreeLuby(b *testing.B) {
	g := graph.GNP(16384, 64.0/16383, 1)
	eng := sim.NewEngine(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DegreeLuby(eng, g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLuby times one Luby coloring of the same graph on a reused
// engine. Every node keeps its own rand.Rand (about 5 KB), which sets the
// floor of its allocation.
func BenchmarkLuby(b *testing.B) {
	g := graph.GNP(16384, 64.0/16383, 1)
	eng := sim.NewEngine(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Luby(eng, g, 1); err != nil {
			b.Fatal(err)
		}
	}
}
