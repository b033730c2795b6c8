// Package coloring defines the list defective coloring problem family from
// Fuchs & Kuhn (Definition 1.1): list defective colorings (LDC) on
// undirected graphs, oriented list defective colorings (OLDC) on directed
// graphs, and list arbdefective colorings where the orientation is part of
// the output. It provides instance representations, validators, the
// existence conditions (1) and (2) from the paper, and instance generators
// used throughout the tests and experiments.
//
// Colors are dense integers in [0, SpaceSize). Every node v carries a
// parallel pair of slices (Colors, Defect): choosing Colors[i] allows at
// most Defect[i] (out-)neighbors of the same color.
package coloring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
)

// NodeList is the color list L_v together with the defect function d_v,
// represented as parallel slices sorted by color.
type NodeList struct {
	Colors []int
	Defect []int
}

// Len returns |L_v|.
func (l NodeList) Len() int { return len(l.Colors) }

// DefectOf returns d_v(x) and whether x ∈ L_v.
func (l NodeList) DefectOf(x int) (int, bool) {
	i := sort.SearchInts(l.Colors, x)
	if i < len(l.Colors) && l.Colors[i] == x {
		return l.Defect[i], true
	}
	return 0, false
}

// WeightSum returns Σ_{x∈L_v} (d_v(x)+1).
func (l NodeList) WeightSum() int {
	s := 0
	for _, d := range l.Defect {
		s += d + 1
	}
	return s
}

// Validate checks sortedness, uniqueness, range, and defect non-negativity.
func (l NodeList) Validate(spaceSize int) error {
	if len(l.Colors) != len(l.Defect) {
		return fmt.Errorf("coloring: colors/defect length mismatch %d vs %d", len(l.Colors), len(l.Defect))
	}
	for i, c := range l.Colors {
		if c < 0 || c >= spaceSize {
			return fmt.Errorf("coloring: color %d outside space [0,%d)", c, spaceSize)
		}
		if i > 0 && l.Colors[i-1] >= c {
			return fmt.Errorf("coloring: list not strictly sorted at index %d", i)
		}
		if l.Defect[i] < 0 {
			return fmt.Errorf("coloring: negative defect %d for color %d", l.Defect[i], c)
		}
	}
	return nil
}

// Instance is a list defective coloring instance on an undirected graph
// (communication always happens over G; the oriented variant pairs this
// with a graph.Oriented).
type Instance struct {
	G         *graph.Graph
	SpaceSize int
	Lists     []NodeList
}

// MaxListSize returns Λ = max_v |L_v|.
func (in *Instance) MaxListSize() int {
	m := 0
	for _, l := range in.Lists {
		if l.Len() > m {
			m = l.Len()
		}
	}
	return m
}

// Validate checks structural invariants of the instance.
func (in *Instance) Validate() error {
	if len(in.Lists) != in.G.N() {
		return fmt.Errorf("coloring: %d lists for %d nodes", len(in.Lists), in.G.N())
	}
	for v, l := range in.Lists {
		if err := l.Validate(in.SpaceSize); err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
	}
	return nil
}

// Assignment is a (partial) coloring; Unset marks uncolored nodes.
type Assignment []int

// Unset marks an uncolored node in an Assignment.
const Unset = -1

// NewAssignment returns an all-Unset assignment for n nodes.
func NewAssignment(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = Unset
	}
	return a
}

// --- Existence conditions (Section 1, conditions (1) and (2)) ---

// CondExistsLDC reports whether condition (1) holds at every node:
// Σ_{x∈L_v}(d_v(x)+1) > deg(v).
func CondExistsLDC(in *Instance) bool {
	for v, l := range in.Lists {
		if l.WeightSum() <= in.G.Degree(v) {
			return false
		}
	}
	return true
}

// CondExistsArb reports whether condition (2) holds at every node:
// Σ_{x∈L_v}(2·d_v(x)+1) > deg(v).
func CondExistsArb(in *Instance) bool {
	for v, l := range in.Lists {
		s := 0
		for _, d := range l.Defect {
			s += 2*d + 1
		}
		if s <= in.G.Degree(v) {
			return false
		}
	}
	return true
}

// --- Generators ---

// DegreePlusOne returns the (degree+1)-list coloring instance: each node
// draws deg(v)+1 distinct colors from [0, spaceSize) with zero defects.
// spaceSize must be at least Δ+1.
func DegreePlusOne(g *graph.Graph, spaceSize int, seed int64) *Instance {
	if spaceSize < g.MaxDegree()+1 {
		panic("coloring: space too small for degree+1 lists")
	}
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{G: g, SpaceSize: spaceSize, Lists: make([]NodeList, g.N())}
	for v := 0; v < g.N(); v++ {
		k := g.Degree(v) + 1
		colors := sampleDistinct(rng, spaceSize, k)
		in.Lists[v] = NodeList{Colors: colors, Defect: make([]int, k)}
	}
	return in
}

// Standard returns the standard (Δ+1)-coloring instance: every node has
// list {0..Δ} with zero defects.
func Standard(g *graph.Graph) *Instance {
	k := g.MaxDegree() + 1
	// Every node owns a segment of two flat arrays, capped so that an
	// append to one list reallocates instead of overwriting the next.
	colors, defects := make([]int, g.N()*k), make([]int, g.N()*k)
	in := &Instance{G: g, SpaceSize: k, Lists: make([]NodeList, g.N())}
	for v := range in.Lists {
		c := colors[v*k : (v+1)*k : (v+1)*k]
		for i := range c {
			c[i] = i
		}
		in.Lists[v] = NodeList{Colors: c, Defect: defects[v*k : (v+1)*k : (v+1)*k]}
	}
	return in
}

// UniformDefective returns an instance where every node gets listSize
// random colors, each with the given defect.
func UniformDefective(g *graph.Graph, spaceSize, listSize, defect int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{G: g, SpaceSize: spaceSize, Lists: make([]NodeList, g.N())}
	for v := 0; v < g.N(); v++ {
		colors := sampleDistinct(rng, spaceSize, listSize)
		def := make([]int, listSize)
		for i := range def {
			def[i] = defect
		}
		in.Lists[v] = NodeList{Colors: colors, Defect: def}
	}
	return in
}

// SquareSumOriented builds an OLDC instance on the oriented graph o that
// satisfies Σ(d_v(x)+1)² ≥ β_v²·kappa at every node, with defects varying
// across the list (mixing powers of two between 0 and maxDefect). It
// returns the instance over a space of the given size. The space must be
// large enough for every node's target and at most MaxListSpace;
// SquareSumOriented panics with the error SquareSumOrientedRange returns
// when it is not (an *ErrSpaceExhausted when it is too small).
func SquareSumOriented(o *graph.Oriented, spaceSize int, kappa float64, maxDefect int, seed int64) *Instance {
	in, err := SquareSumOrientedRange(o, spaceSize, kappa, 0, maxDefect, seed)
	if err != nil {
		panic(err)
	}
	return in
}

// ErrSpaceExhausted reports a square-sum target that a node's list cannot
// reach: the node drew every color of the space and Σ(d+1)² stayed below
// β_v²·kappa.
type ErrSpaceExhausted struct {
	Node, OutDegree, SpaceSize int
	Kappa                      float64
}

// Error implements the error interface.
func (e *ErrSpaceExhausted) Error() string {
	return fmt.Sprintf("coloring: color space of %d exhausted at node %d: square-sum target %g·%d² out of reach",
		e.SpaceSize, e.Node, e.Kappa, e.OutDegree)
}

// MaxListSpace is the largest color space SquareSumOrientedRange draws
// lists from. Its scratch, allocated once per call, is one bit per color
// and one rank per 64 colors: 3 MiB at this bound.
const MaxListSpace = 1 << 24

// SquareSumOrientedRange is SquareSumOriented with a lower bound on the
// per-color defects (robustness experiments use minDefect ≥ 1 so that a
// single stray collision is absorbed). It returns an *ErrSpaceExhausted
// when the space cannot meet some node's target, and an error when
// spaceSize is over MaxListSpace.
//
// Each node draws colors uniformly, skipping repeats, until its target is
// met. The seed fixes the sequence of draws (a color, then its defect's
// exponent when maxDefect > minDefect), and so every list. Repeats are
// found in one spaceSize-bit set of drawn colors, shared by every node
// and cleared after each; see sortedList for how a list is put in order.
func SquareSumOrientedRange(o *graph.Oriented, spaceSize int, kappa float64, minDefect, maxDefect int, seed int64) (*Instance, error) {
	if spaceSize > MaxListSpace {
		return nil, fmt.Errorf("coloring: color space of %d is over the %d that square-sum lists support", spaceSize, MaxListSpace)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{G: o.Graph(), SpaceSize: spaceSize, Lists: make([]NodeList, o.N())}
	words := (max(spaceSize, 0) + 63) / 64
	drawn := make([]uint64, words)
	rank := make([]int32, words)
	var colors, defs []int // the node's draws, in draw order
	for v := 0; v < o.N(); v++ {
		beta := o.OutDegree(v)
		target := float64(beta*beta) * kappa
		colors, defs = colors[:0], defs[:0]
		var sum float64
		for sum < target {
			c := rng.Intn(spaceSize)
			if drawn[c>>6]&(1<<(c&63)) != 0 {
				if len(colors) >= spaceSize {
					return nil, &ErrSpaceExhausted{Node: v, OutDegree: beta, SpaceSize: spaceSize, Kappa: kappa}
				}
				continue
			}
			drawn[c>>6] |= 1 << (c & 63)
			d := minDefect
			if maxDefect > minDefect {
				d = (1 << uint(rng.Intn(log2floor(maxDefect)+2))) - 1
				if d > maxDefect {
					d = maxDefect
				}
				if d < minDefect {
					d = minDefect
				}
			}
			colors = append(colors, c)
			defs = append(defs, d)
			sum += float64((d + 1) * (d + 1))
		}
		if len(colors) > 0 {
			in.Lists[v] = sortedList(drawn, rank, colors, defs)
		}
	}
	return in, nil
}

// sortedList returns the drawn colors with their defects, in color order,
// as one exactly sized list, and clears them from the set drawn. A list
// with a color for every 16 words of the set or more is read off the set:
// one walk up to its largest color records in rank the number of colors
// below each word, and each defect then lands at its color's rank plus a
// popcount. A sparser list is sorted instead, so its cost follows the
// list's length, not the space's size.
func sortedList(drawn []uint64, rank []int32, colors, defs []int) NodeList {
	k := len(colors)
	l := NodeList{Colors: make([]int, k), Defect: make([]int, k)}
	if 16*k < len(drawn) {
		copy(l.Colors, colors)
		slices.Sort(l.Colors)
		for i, c := range colors {
			j, _ := slices.BinarySearch(l.Colors, c)
			l.Defect[j] = defs[i]
			drawn[c>>6] &^= 1 << (c & 63)
		}
		return l
	}
	j, w := 0, 0
	for ; j < k; w++ {
		rank[w] = int32(j)
		for word := drawn[w]; word != 0; word &= word - 1 {
			l.Colors[j] = w<<6 | bits.TrailingZeros64(word)
			j++
		}
	}
	for i, c := range colors {
		below := drawn[c>>6] & (1<<(c&63) - 1)
		l.Defect[int(rank[c>>6])+bits.OnesCount64(below)] = defs[i]
	}
	clear(drawn[:w])
	return l
}

// CliqueUniform returns the tightness gadget from Appendix A: the clique
// K_{n} where every node has the same list and defect function. weightSum
// controls Σ(d+1): passing weightSum == n-1 makes condition (1) fail by
// exactly one.
func CliqueUniform(n int, defect int, weightSum int) *Instance {
	g := graph.Clique(n)
	per := defect + 1
	k := weightSum / per
	rem := weightSum % per
	var colors []int
	var defs []int
	for i := 0; i < k; i++ {
		colors = append(colors, i)
		defs = append(defs, defect)
	}
	if rem > 0 {
		colors = append(colors, k)
		defs = append(defs, rem-1)
	}
	space := len(colors)
	in := &Instance{G: g, SpaceSize: space, Lists: make([]NodeList, n)}
	for v := range in.Lists {
		in.Lists[v] = NodeList{Colors: append([]int(nil), colors...), Defect: append([]int(nil), defs...)}
	}
	return in
}

func sampleDistinct(rng *rand.Rand, space, k int) []int {
	if k > space {
		panic(fmt.Sprintf("coloring: cannot sample %d distinct colors from space %d", k, space))
	}
	if k*3 >= space {
		perm := rng.Perm(space)[:k]
		sort.Ints(perm)
		return perm
	}
	used := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		c := rng.Intn(space)
		if !used[c] {
			used[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func log2floor(x int) int {
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}
