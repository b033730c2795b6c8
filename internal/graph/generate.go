package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// The generators below are all deterministic given their seed, so tests and
// experiments are reproducible.

// Ring returns the cycle C_n (n >= 3).
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Path returns the path P_n. Only tests use it, as a fixture in several
// packages.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Clique returns the complete graph K_n.
func Clique(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b}. Only tests use it, as a fixture in
// several packages.
func CompleteBipartite(a, b int) *Graph {
	bl := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bl.AddEdge(i, a+j)
		}
	}
	return bl.Build()
}

// Grid returns the r x c grid graph.
func Grid(r, c int) *Graph {
	b := NewBuilder(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return b.Build()
}

// Torus returns the r x c torus (wraparound grid); r, c >= 3.
func Torus(r, c int) *Graph {
	if r < 3 || c < 3 {
		panic("graph: torus needs r,c >= 3")
	}
	b := NewBuilder(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			b.AddEdge(id(i, j), id((i+1)%r, j))
			b.AddEdge(id(i, j), id(i, (j+1)%c))
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d vertices.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			w := v ^ (1 << k)
			if w > v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// CompleteKary returns the complete k-ary tree with the given number of
// levels (levels >= 1; levels == 1 is a single vertex). Only tests use it,
// as a fixture in several packages.
func CompleteKary(k, levels int) *Graph {
	n := 1
	width := 1
	for l := 1; l < levels; l++ {
		width *= k
		n += width
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/k)
	}
	return b.Build()
}

// GNP returns an Erdős–Rényi G(n, p) sample, drawn by geometric skip
// sampling: instead of flipping a coin per vertex pair, the draw jumps
// directly to the next present edge, so a sparse sample costs O(m) work.
// Pairs (i, j), i < j, come in lexicographic order, fixed by the seed.
func GNP(n int, p float64, seed int64) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return build(n, func(emit func(u, v int32)) {
		if n < 2 || p <= 0 {
			return
		}
		if p >= 1 {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					emit(int32(i), int32(j))
				}
			}
			return
		}
		rng := rand.New(rand.NewSource(seed))
		logq := math.Log1p(-p) // log(1-p) < 0
		total := int64(n) * int64(n-1) / 2
		// k is the linear index of the current pair in lexicographic order;
		// row i covers indices [rowStart, rowStart + n-1-i).
		k := int64(-1)
		i, rowStart := 0, int64(0)
		for {
			// Geometric gap ≥ 1: trials until the next present pair.
			u := rng.Float64()
			k += int64(math.Log(1-u)/logq) + 1
			if k >= total || k < 0 { // k < 0 guards float overflow on tiny p
				return
			}
			for k >= rowStart+int64(n-1-i) {
				rowStart += int64(n - 1 - i)
				i++
			}
			emit(int32(i), int32(i+1+int(k-rowStart)))
		}
	})
}

// RandomRegular returns a d-regular graph on n vertices sampled via the
// configuration model followed by edge-swap repair of loops and duplicate
// edges. n*d must be even and d < n. When the repair stalls, the stubs are
// reshuffled from the same rng; a seed whose first shuffle repairs never
// reshuffles, so its graph does not depend on the fallback.
func RandomRegular(n, d int, seed int64) *Graph {
	if n*d%2 != 0 {
		panic("graph: RandomRegular needs n*d even")
	}
	if d >= n {
		panic("graph: RandomRegular needs d < n")
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := make([]int, n*d)
	pairs := make([][2]int, n*d/2)
	for shuffles := 1; ; shuffles++ {
		if shuffles > regularShuffles {
			panic(fmt.Sprintf("graph: RandomRegular(%d,%d) failed to converge in %d shuffles", n, d, regularShuffles))
		}
		for i := range stubs {
			stubs[i] = i / d
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		for i := range pairs {
			pairs[i] = [2]int{stubs[2*i], stubs[2*i+1]}
		}
		if repairPairs(pairs, rng) {
			break
		}
	}
	b := NewBuilder(n)
	for _, e := range pairs {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// regularShuffles bounds RandomRegular's reshuffles. Stalls are rare (for
// n=8, d=6 the first shuffle stalls with 46 of the seeds 0–299), so
// running out means the parameters admit almost no simple graph.
const regularShuffles = 100

// repairPairs repairs loops and duplicate edges in place by double edge
// swaps: a bad pair {u,v} and a random pair {x,y} become {u,x} and {v,y}
// when neither new edge exists yet. It reports false when the repair
// stalls: its attempt budget is spent, or the first bad pair has no
// admissible partner, so that no draw can ever change the state. The
// partner check runs only after len(pairs) failed draws in a row and draws
// nothing from rng, so a repair that succeeds makes the same draws with or
// without it. A swap lowers the counts of two old edges and adds two edges
// that had none, so every pair before the first bad one stays good: the
// scan for the first bad pair resumes where the last one stopped.
func repairPairs(pairs [][2]int, rng *rand.Rand) bool {
	key := func(u, v int) [2]int32 {
		if u > v {
			u, v = v, u
		}
		return [2]int32{int32(u), int32(v)}
	}
	count := make(map[[2]int32]int, len(pairs))
	bad := func(e [2]int) bool { return e[0] == e[1] || count[key(e[0], e[1])] > 1 }
	for _, e := range pairs {
		if e[0] != e[1] {
			count[key(e[0], e[1])]++
		}
	}
	swappable := func(i, j int) bool {
		u, v := pairs[i][0], pairs[i][1]
		x, y := pairs[j][0], pairs[j][1]
		return j != i && u != x && v != y && count[key(u, x)] == 0 && count[key(v, y)] == 0
	}
	fails, badIdx := 0, 0
	for attempt := 0; ; attempt++ {
		if attempt > 1000000 {
			return false
		}
		for badIdx < len(pairs) && !bad(pairs[badIdx]) {
			badIdx++
		}
		if badIdx == len(pairs) {
			return true
		}
		if fails >= len(pairs) {
			fails = 0
			stuck := true
			for j := range pairs {
				if swappable(badIdx, j) {
					stuck = false
					break
				}
			}
			if stuck {
				return false
			}
		}
		j := rng.Intn(len(pairs))
		if !swappable(badIdx, j) {
			fails++
			continue
		}
		fails = 0
		// Remove old edges from the multiset, insert the rewired pair.
		u, v := pairs[badIdx][0], pairs[badIdx][1]
		x, y := pairs[j][0], pairs[j][1]
		if u != v {
			count[key(u, v)]--
		}
		if x != y {
			count[key(x, y)]--
		}
		count[key(u, x)]++
		count[key(v, y)]++
		pairs[badIdx] = [2]int{u, x}
		pairs[j] = [2]int{v, y}
	}
}

// PreferentialAttachment returns a Barabási–Albert style power-law graph:
// an initial (k+1)-clique, then vertices k+1..n-1 each attach to k
// distinct earlier vertices chosen proportionally to degree
// (repeated-endpoint sampling over a 2m-entry endpoint list). Endpoints
// are appended in pick order, never in map order, so the graph is a pure
// function of (n, k, seed).
func PreferentialAttachment(n, k int, seed int64) *Graph {
	if n < k+1 {
		panic("graph: PreferentialAttachment needs n > k")
	}
	if k < 1 {
		panic("graph: PreferentialAttachment needs k >= 1")
	}
	endpoints := make([]int32, 0, k*(k+1)+2*k*(n-k-1))
	chosen := make([]int32, 0, k)
	return build(n, func(emit func(u, v int32)) {
		rng := rand.New(rand.NewSource(seed))
		endpoints = endpoints[:0]
		for i := int32(0); i <= int32(k); i++ {
			for j := i + 1; j <= int32(k); j++ {
				emit(i, j)
				endpoints = append(endpoints, i, j)
			}
		}
		for v := int32(k + 1); v < int32(n); v++ {
			chosen = chosen[:0]
			for len(chosen) < k {
				if c := endpoints[rng.Intn(len(endpoints))]; !slices.Contains(chosen, c) {
					chosen = append(chosen, c)
				}
			}
			for _, u := range chosen {
				emit(v, u)
				endpoints = append(endpoints, v, u)
			}
		}
	})
}

// RandomTree returns a uniformly random labeled tree (Prüfer sequence).
func RandomTree(n int, seed int64) *Graph {
	if n == 1 {
		return NewBuilder(1).Build()
	}
	if n == 2 {
		return NewBuilder(2).AddEdge(0, 1).Build()
	}
	rng := rand.New(rand.NewSource(seed))
	prufer := make([]int, n-2)
	deg := make([]int, n)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
		deg[prufer[i]]++
	}
	for v := range deg {
		deg[v]++
	}
	b := NewBuilder(n)
	// Standard Prüfer decoding with a scan pointer.
	ptr := 0
	leaf := -1
	used := make([]bool, n)
	pick := func() int {
		if leaf >= 0 {
			l := leaf
			leaf = -1
			return l
		}
		for used[ptr] || deg[ptr] != 1 {
			ptr++
		}
		used[ptr] = true
		return ptr
	}
	for _, p := range prufer {
		l := pick()
		b.AddEdge(l, p)
		deg[l]--
		deg[p]--
		if deg[p] == 1 && p < ptr {
			leaf = p
		}
	}
	// Two vertices of degree 1 remain.
	var rest []int
	for v := 0; v < n; v++ {
		if deg[v] == 1 && !used[v] {
			rest = append(rest, v)
		}
	}
	b.AddEdge(rest[0], rest[1])
	return b.Build()
}

// RandomGeometric places n points uniformly in the unit square and
// connects pairs within the given radius — the standard model for wireless
// interference graphs (used by the frequency-assignment example).
func RandomGeometric(n int, radius float64, seed int64) (*Graph, [][2]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := pts[i][0] - pts[j][0]
			dy := pts[i][1] - pts[j][1]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build(), pts
}
