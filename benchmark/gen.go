package main

import (
	"math"
	"math/rand"
	"strconv"
)

// The generators below make every workload's input from its seed. They are
// the benchmark's own, not the program's (internal/graph has generators
// too), so a change to the program under test cannot change its inputs.
// Generation is never timed.

// edgeListText renders edges in the SNAP "u v" line format that
// graph.LoadEdgeList parses (the format behind ldc-run -graph file:).
func edgeListText(edges [][2]int32) []byte {
	buf := make([]byte, 0, len(edges)*14)
	for _, e := range edges {
		buf = strconv.AppendInt(buf, int64(e[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// gnpEdges samples G(n, p) with p = avgDeg/(n-1), skipping geometrically
// over absent pairs (Batagelj–Brandes), so the cost is linear in the edges
// drawn rather than in n².
func gnpEdges(n int, avgDeg float64, seed int64) [][2]int32 {
	p := avgDeg / float64(n-1)
	rng := rand.New(rand.NewSource(seed))
	logq := math.Log(1 - p)
	edges := make([][2]int32, 0, int(avgDeg*float64(n)/2*1.01))
	v, w := 1, -1
	for v < n {
		w += 1 + int(math.Log(1-rng.Float64())/logq)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			edges = append(edges, [2]int32{int32(v), int32(w)})
		}
	}
	return edges
}

// regularEdges returns a random d-regular simple graph on n nodes (d even,
// d < n): the circulant graph joining every node to its d/2 successors
// mod n, randomized by 20·m degree-preserving double-edge swaps. The
// configuration model with swap repair (graph.RandomRegular) takes seconds
// at d=128; this takes milliseconds and gives the same kind of graph.
func regularEdges(n, d int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	has := func(u, v int32) bool { return adj[int(u)*words+int(v)/64]&(1<<(uint(v)%64)) != 0 }
	flip := func(u, v int32) {
		adj[int(u)*words+int(v)/64] ^= 1 << (uint(v) % 64)
		adj[int(v)*words+int(u)/64] ^= 1 << (uint(u) % 64)
	}
	edges := make([][2]int32, 0, n*d/2)
	for u := 0; u < n; u++ {
		for k := 1; k <= d/2; k++ {
			e := [2]int32{int32(u), int32((u + k) % n)}
			edges = append(edges, e)
			flip(e[0], e[1])
		}
	}
	for i := 0; i < 20*len(edges); i++ {
		x, y := rng.Intn(len(edges)), rng.Intn(len(edges))
		a, b := edges[x][0], edges[x][1]
		c, e := edges[y][0], edges[y][1]
		if rng.Intn(2) == 0 {
			c, e = e, c
		}
		// Rewire {a,b},{c,e} to {a,e},{c,b}: degrees are unchanged.
		if a == c || a == e || b == c || b == e || has(a, e) || has(c, b) {
			continue
		}
		flip(a, b)
		flip(c, e)
		flip(a, e)
		flip(c, b)
		edges[x] = [2]int32{a, e}
		edges[y] = [2]int32{c, b}
	}
	return edges
}
