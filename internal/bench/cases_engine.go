package bench

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// benchFlood is the minimum-id flood protocol, the standard broadcast
// workload for engine benchmarks: every node broadcasts a varint every
// round, so a round routes 2m wires.
type benchFlood struct {
	min []int64
}

func (a *benchFlood) Outbox(v int, out *sim.Outbox) {
	out.Broadcast(sim.VarintPayload{Value: uint64(a.min[v])})
}

func (a *benchFlood) Inbox(v int, in []sim.Received) {
	for _, m := range in {
		if got := int64(m.Payload.(sim.VarintPayload).Value); got < a.min[v] {
			a.min[v] = got
		}
	}
}

func (a *benchFlood) Done() bool { return false }

// roundBudget drives an inner algorithm for exactly `rounds` rounds.
type roundBudget struct {
	sim.Algorithm
	rounds, polled int
}

func (r *roundBudget) Done() bool {
	r.polled++
	return r.polled > r.rounds
}

// floodOp runs `rounds` rounds of the flood on eng from a fresh state and
// times one round. The verdict is that every round routed all 2m wires.
func floodOp(g *graph.Graph, eng *sim.Engine, rounds int) benchOp {
	a := &benchFlood{min: make([]int64, g.N())}
	return func() (result, error) {
		for v := range a.min {
			a.min[v] = int64(v)
		}
		start := time.Now()
		st, err := eng.Run(&roundBudget{Algorithm: a, rounds: rounds}, rounds+1)
		el := time.Since(start)
		if err != nil {
			return result{}, err
		}
		return result{
			counts:  map[string]any{"rounds": st.Rounds, "messages": st.Messages, "bits": st.TotalBits},
			timings: map[string]time.Duration{"round": el / time.Duration(rounds)},
			valid:   st.Rounds == rounds && st.Messages == int64(rounds)*2*int64(g.M()),
		}, nil
	}
}

// simCases is the engine throughput suite: the flood on random regular
// graphs in the E6 regime, at the engine's default worker count.
func simCases(quick bool) []benchCase {
	specs := []struct{ n, delta int }{{4096, 8}, {2048, 64}, {2048, 128}}
	rounds := 200
	if quick {
		specs = []struct{ n, delta int }{{512, 8}, {256, 16}, {256, 32}}
		rounds = 10
	}
	var cases []benchCase
	for _, s := range specs {
		cases = append(cases, benchCase{
			name:   fmt.Sprintf("routing/delta=%d", s.delta),
			params: map[string]any{"n": s.n, "delta": s.delta, "rounds": rounds},
			build: func() (benchOp, error) {
				g := graph.RandomRegular(s.n, s.delta, 1)
				return floodOp(g, sim.NewEngine(g), rounds), nil
			},
		})
	}
	return cases
}

// shardCases is the worker-count suite. The curve routes the flood over
// one uniform G(n,p) graph at each worker count; its average degree is far
// above the largest count, so splitting a broadcast into per-shard runs
// stays amortized. The big run colors an n=1.2M power-law graph with
// DegreeLuby on 8 workers.
func shardCases(quick bool) []benchCase {
	curveN, curveDeg, counts := 262_144, 96.0, []int{1, 2, 4, 8}
	bigN, bigShards := 1_200_000, 8
	if quick {
		curveN, curveDeg, counts = 2048, 16.0, []int{1, 2, 4}
		bigN, bigShards = 20_000, 4
	}
	const (
		curveSeed, curveRounds  = 7, 3
		bigK, bigSeed, lubySeed = 3, 11, 5
	)
	var cases []benchCase
	for _, s := range counts {
		cases = append(cases, benchCase{
			name:   fmt.Sprintf("curve/shards=%d", s),
			params: map[string]any{"n": curveN, "avg_degree": curveDeg, "seed": curveSeed, "shards": s, "rounds": curveRounds},
			build: func() (benchOp, error) {
				g := graph.GNP(curveN, curveDeg/float64(curveN), curveSeed)
				eng := sim.NewEngineWith(g, sim.Options{Workers: s})
				flood := floodOp(g, eng, curveRounds)
				return func() (result, error) {
					r, err := flood()
					if err != nil {
						return r, err
					}
					ghosts, boundary := eng.Census()
					r.counts["m"], r.counts["ghost_nodes"], r.counts["boundary_edges"] = g.M(), ghosts, boundary
					return r, nil
				}, nil
			},
		})
	}
	cases = append(cases, benchCase{
		name:   "big/powerlaw",
		params: map[string]any{"n": bigN, "k": bigK, "seed": bigSeed, "shards": bigShards, "luby_seed": lubySeed},
		build: func() (benchOp, error) {
			g := graph.PreferentialAttachment(bigN, bigK, bigSeed)
			eng := sim.NewEngineWith(g, sim.Options{Workers: bigShards})
			return func() (result, error) {
				start := time.Now()
				phi, st, err := baseline.DegreeLuby(eng, g, lubySeed)
				el := time.Since(start)
				if err != nil {
					return result{}, err
				}
				ghosts, boundary := eng.Census()
				return result{
					counts: map[string]any{
						"m": g.M(), "max_degree": g.MaxDegree(), "rounds": st.Rounds, "messages": st.Messages,
						"colors": coloring.CountColors(phi), "ghost_nodes": ghosts, "boundary_edges": boundary,
					},
					timings: map[string]time.Duration{"solve": el},
					valid:   coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil,
					doc:     func() verifyDoc { return properDoc(g, g.MaxDegree()+1, phi) },
				}, nil
			}, nil
		},
	})
	return cases
}
