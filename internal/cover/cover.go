// Package cover implements the combinatorial conflict machinery of Section
// 3 of the paper: the per-color proximity count μ_g, τ&g-conflicts between
// color sets (Definition 3.2), the conflict relation Ψ_g(τ′,τ) between
// families of color sets (Definition 3.3), congruence-class list splitting
// (Section 3.2.2), and the zero-round solution to problem P2 — realized as
// deterministic type-seeded candidate families (DESIGN.md substitution 1).
package cover

import (
	"math"
	"sort"
)

// MuG returns μ_g(x, C) = |{c ∈ C : |x − c| ≤ g}|. C must be sorted.
func MuG(x int, c []int, g int) int {
	lo := sort.SearchInts(c, x-g)
	hi := sort.SearchInts(c, x+g+1)
	return hi - lo
}

// ConflictWeight returns Σ_{x∈C1} μ_g(x, C2); it is symmetric in C1 and C2.
// Only tests use it: directly, and through oldc's twoPhaseAlg.ignored, the
// documented reference of Phase II's ignore rule.
func ConflictWeight(c1, c2 []int, g int) int {
	if g == 0 {
		return intersectCount(c1, c2, -1)
	}
	w := 0
	for _, x := range c1 {
		w += MuG(x, c2, g)
	}
	return w
}

// TauGConflict reports whether C1 and C2 do τ&g-conflict (Definition 3.2):
// ConflictWeight(C1, C2, g) ≥ τ.
func TauGConflict(c1, c2 []int, tau, g int) bool {
	if g == 0 {
		return intersectCount(c1, c2, tau) >= tau
	}
	// Early-exit variant of ConflictWeight.
	w := 0
	for _, x := range c1 {
		w += MuG(x, c2, g)
		if w >= tau {
			return true
		}
	}
	return false
}

// intersectCount merges the two sorted sets and counts common elements,
// stopping early once the count reaches stop (pass stop < 0 for the exact
// count). This is the g = 0 hot path of the OLDC algorithms.
func intersectCount(c1, c2 []int, stop int) int {
	i, j, cnt := 0, 0, 0
	for i < len(c1) && j < len(c2) {
		switch {
		case c1[i] < c2[j]:
			i++
		case c1[i] > c2[j]:
			j++
		default:
			cnt++
			if stop >= 0 && cnt >= stop {
				return cnt
			}
			i++
			j++
		}
	}
	return cnt
}

// ResidueClass returns L^a = {x ∈ L : x ≡ a (mod 2g+1)} (Section 3.2.2).
// L must be sorted; the result is sorted.
func ResidueClass(l []int, a, g int) []int {
	mod := 2*g + 1
	var out []int
	for _, x := range l {
		if x%mod == a {
			out = append(out, x)
		}
	}
	return out
}

// BestResidue returns the residue a maximizing |L^a| and that class; by the
// pigeonhole principle |L^a| ≥ |L|/(2g+1).
func BestResidue(l []int, g int) (int, []int) {
	if g == 0 {
		return 0, l
	}
	mod := 2*g + 1
	counts := make([]int, mod)
	for _, x := range l {
		counts[x%mod]++
	}
	best := 0
	for a := 1; a < mod; a++ {
		if counts[a] > counts[best] {
			best = a
		}
	}
	return best, ResidueClass(l, best, g)
}

// Params collects the parameters of the P2 set-family construction. The
// theoretical values of τ and τ′ (equations (4) and (5) in the paper) blow
// up the candidate families beyond anything executable, so the practical
// profile scales τ and caps the family size; experiments always validate
// the resulting colorings (DESIGN.md substitution 2).
type Params struct {
	// TauScale divides the theoretical τ (1 = faithful).
	TauScale int
	// TauFloor lower-bounds the scaled τ.
	TauFloor int
	// KPrimeCap caps the family size k′ = 2^h·τ′.
	KPrimeCap int
	// KPrimeFloor lower-bounds the family size (the theoretical τ′ is
	// astronomically large, and the scaled τ makes the formula collapse to
	// 2; the floor keeps a useful number of candidate sets).
	KPrimeFloor int
	// SetSizeCap caps the per-set size k_i = 2^i·τ.
	SetSizeCap int
	// Alpha is the list-size constant α.
	Alpha int
}

// Practical returns the laptop-scale profile used by the experiments.
func Practical() Params {
	return Params{TauScale: 24, TauFloor: 2, KPrimeCap: 16, KPrimeFloor: 8, SetSizeCap: 64, Alpha: 1}
}

// OrPractical returns p, or Practical() when p leaves TauScale at zero:
// the zero value of an algorithm's Params option selects the practical
// profile.
func (p Params) OrPractical() Params {
	if p.TauScale == 0 {
		return Practical()
	}
	return p
}

// TauTheory returns the paper's τ(h, |C|, m) from equation (4):
// ⌈8h + 2·loglog|C| + 2·loglog m + 16⌉.
func TauTheory(h, spaceSize, m int) int {
	return int(math.Ceil(8*float64(h) + 2*loglog2(spaceSize) + 2*loglog2(m) + 16))
}

// Tau returns the scaled τ for this profile.
func (p Params) Tau(h, spaceSize, m int) int {
	t := TauTheory(h, spaceSize, m) / p.TauScale
	if t < p.TauFloor {
		t = p.TauFloor
	}
	return t
}

// KPrime returns the (capped) family size k′ = 2^h·τ′ with
// τ′ = 2^{τ − ⌈2h + log(2e)⌉} from equation (5).
func (p Params) KPrime(h, tau int) int {
	// 2^h · 2^(τ − ⌈2h + log 2e⌉); compute in floating point and cap.
	exp := float64(h) + float64(tau) - math.Ceil(2*float64(h)+math.Log2(2*math.E))
	if exp >= 31 {
		return p.KPrimeCap
	}
	k := int(math.Pow(2, exp))
	floor := p.KPrimeFloor
	if floor < 2 {
		floor = 2
	}
	if floor > p.KPrimeCap {
		floor = p.KPrimeCap
	}
	if k < floor {
		k = floor
	}
	if k > p.KPrimeCap {
		k = p.KPrimeCap
	}
	return k
}

// SetSize returns the (capped) per-set size k_i = 2^i·τ for γ-class i,
// additionally clamped to the available list length.
func (p Params) SetSize(i, tau, listLen int) int {
	k := tau
	for j := 0; j < i; j++ {
		k *= 2
		if k >= p.SetSizeCap {
			k = p.SetSizeCap
			break
		}
	}
	if k > listLen {
		k = listLen
	}
	if k < 1 {
		k = 1
	}
	return k
}

func loglog2(x int) float64 {
	if x < 4 {
		return 0
	}
	return math.Log2(math.Log2(float64(x)))
}

// Type identifies a node type for the zero-round P2 solution: nodes with
// equal types must output equal candidate families. It consists of the
// node's color in the initial proper m-coloring and its (restricted,
// sorted) color list; set size and family size are derived from the same
// data at both endpoints, so they are part of the hash as well.
type Type struct {
	InitColor int
	List      []int
	SetSize   int
	NumSets   int
}

// seed hashes the type with 64-bit FNV-1a over the little-endian 8-byte
// encodings of InitColor, SetSize, NumSets, len(List) and the list.
func (t Type) seed() uint64 {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(t.InitColor))
	h = fnvWord(h, uint64(t.SetSize))
	h = fnvWord(h, uint64(t.NumSets))
	h = fnvWord(h, uint64(len(t.List)))
	for _, x := range t.List {
		h = fnvWord(h, uint64(x))
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k mod 2^64.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fnvWord feeds the 8 little-endian bytes of v into the FNV-1a state h.
// Once the remaining high bytes are all zero, each of the k steps left is
// a xor with 0 (a no-op) and a multiply, so one multiply by prime^k
// finishes the word.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		if v == 0 {
			return h * fnvPrimePow[8-i]
		}
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h
}

// Family deterministically derives the candidate family K of the type: a
// list of NumSets sorted SetSize-subsets of List. Equal types produce equal
// families — the property the paper's greedy type assignment provides — and
// the pseudorandom choice realizes the low pairwise Ψ-conflict bound that
// Lemma 3.1 guarantees to exist (DESIGN.md substitution 1). The algorithms
// derive families through FamilyCache; Family is the reference form that
// this package's tests and oldc's golden tests compare against, and only
// tests call it.
func Family(t Type) [][]int {
	if t.SetSize > len(t.List) {
		t.SetSize = len(t.List)
	}
	if t.SetSize == 0 || len(t.List) == 0 {
		return nil
	}
	rng := splitmix{state: t.seed()}
	k := make([][]int, t.NumSets)
	idx := make([]int, len(t.List))
	for s := range k {
		for i := range idx {
			idx[i] = i
		}
		// Partial Fisher–Yates: the first SetSize entries become a uniform
		// subset.
		for i := 0; i < t.SetSize; i++ {
			j := i + int(rng.next()%uint64(len(idx)-i))
			idx[i], idx[j] = idx[j], idx[i]
		}
		set := make([]int, t.SetSize)
		for i := 0; i < t.SetSize; i++ {
			set[i] = t.List[idx[i]]
		}
		sort.Ints(set)
		k[s] = set
	}
	return k
}

// splitmix is SplitMix64, a tiny deterministic PRNG.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
