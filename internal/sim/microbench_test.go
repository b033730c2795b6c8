package sim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// BenchmarkEngineRound measures the raw per-round throughput of the
// simulator: a flood over a 4096-node 8-regular graph (broadcast + inbox
// scan per node) with bit accounting on.
func BenchmarkEngineRound(b *testing.B) {
	g := graph.RandomRegular(4096, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(g)
		a := newFlood(g.N())
		if _, err := e.Run(a, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSequential pins the pool to one worker to expose the
// parallel speedup of the default configuration.
func BenchmarkEngineSequential(b *testing.B) {
	g := graph.RandomRegular(4096, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(g)
		e.SetWorkers(1)
		a := newFlood(g.N())
		if _, err := e.Run(a, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRouting is the broadcast-heavy workload of the E6 regime:
// every node broadcasts one message per round on a Δ=64 random regular
// graph, stressing the engine's encode/route/deliver path rather than the
// algorithm. One benchmark iteration is one full round over all n·Δ wires.
func BenchmarkEngineRouting(b *testing.B) {
	for _, delta := range []int{64, 128} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			g := graph.RandomRegular(2048, delta, 1)
			e := NewEngine(g)
			a := newFlood(g.N())
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(&roundRepeater{alg: a, rounds: b.N}, b.N+1); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// roundRepeater drives an inner algorithm for exactly `rounds` rounds,
// regardless of the inner algorithm's own termination.
type roundRepeater struct {
	alg    Algorithm
	rounds int
	done   int
}

func (r *roundRepeater) Outbox(v int, out *Outbox)  { r.alg.Outbox(v, out) }
func (r *roundRepeater) Inbox(v int, in []Received) { r.alg.Inbox(v, in) }
func (r *roundRepeater) Done() bool {
	r.done++
	return r.done > r.rounds
}
