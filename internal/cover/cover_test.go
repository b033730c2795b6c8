package cover

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// PsiCount returns the number of sets C ∈ K1 that τ&g-conflict with some
// set of K2. The relation Ψ_g(τ′,τ) of Definition 3.3 holds iff
// PsiCount(K1, K2, τ, g) ≥ τ′.
func PsiCount(k1, k2 [][]int, tau, g int) int {
	cnt := 0
	for _, c := range k1 {
		for _, c2 := range k2 {
			if TauGConflict(c, c2, tau, g) {
				cnt++
				break
			}
		}
	}
	return cnt
}

// Psi reports whether (K1, K2) ∈ Ψ_g(τ′, τ).
func Psi(k1, k2 [][]int, tauPrime, tau, g int) bool {
	return PsiCount(k1, k2, tau, g) >= tauPrime
}

// Theory returns the faithful parameter profile (equations (4), (5)).
// Feeding it to the distributed algorithms would ask Family for
// 2^τ′-scale candidate sets, so executable runs use Practical().
func Theory() Params {
	return Params{TauScale: 1, TauFloor: 1, KPrimeCap: math.MaxInt32, KPrimeFloor: 2, SetSizeCap: math.MaxInt32, Alpha: 2}
}

// KappaTheorem11 evaluates the κ(β, C, m) of Theorem 1.1:
//
//	(log β + loglog|C| + loglog m)·(loglog β + loglog m)·log²log β.
//
// It is the slack factor the square-sum condition (3) multiplies β_v² by;
// the Lemma 3.8 decomposition τ·τ̄·h′² is within constants of it (checked
// by tests).
func KappaTheorem11(beta, spaceSize, m int) float64 {
	logB := math.Log2(float64(maxOf(beta, 2)))
	llB := math.Log2(maxFloat(logB, 2))
	llC := loglog2(spaceSize)
	llM := loglog2(m)
	return (logB + llC + llM) * (llB + llM) * llB * llB
}

// KappaLemma38 evaluates the concrete slack τ·τ̄·h′² that the Lemma 3.8
// condition (6) uses, with h = ⌈log β̂⌉ and h′ = 4^⌈log₄ log₂ 8h⌉.
func KappaLemma38(beta, spaceSize, m int) float64 {
	h := 1
	for (1 << uint(h)) < beta {
		h++
	}
	l := math.Log2(8 * float64(h))
	e := math.Ceil(math.Log2(l) / 2)
	if e < 1 {
		e = 1
	}
	hPrime := math.Pow(4, e)
	tau := float64(TauTheory(h, spaceSize, m))
	tauBar := float64(TauTheory(int(hPrime), h, m))
	return tau * tauBar * hPrime * hPrime
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestMuG(t *testing.T) {
	c := []int{1, 4, 5, 9, 12}
	for _, tc := range []struct{ x, g, want int }{
		{5, 0, 1}, {6, 0, 0}, {5, 1, 2}, {5, 4, 4}, {0, 1, 1}, {100, 2, 0}, {9, 3, 2},
	} {
		if got := MuG(tc.x, c, tc.g); got != tc.want {
			t.Fatalf("MuG(%d, C, %d) = %d want %d", tc.x, tc.g, got, tc.want)
		}
	}
}

func TestConflictWeightSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := randSet(rng, 20, 100)
		c2 := randSet(rng, 15, 100)
		g := rng.Intn(4)
		return ConflictWeight(c1, c2, g) == ConflictWeight(c2, c1, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTauGConflictMatchesWeight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := randSet(rng, 12, 60)
		c2 := randSet(rng, 12, 60)
		g := rng.Intn(3)
		tau := 1 + rng.Intn(5)
		return TauGConflict(c1, c2, tau, g) == (ConflictWeight(c1, c2, g) >= tau)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTauZeroGIsIntersection(t *testing.T) {
	c1 := []int{1, 3, 5, 7}
	c2 := []int{3, 4, 7, 9}
	if w := ConflictWeight(c1, c2, 0); w != 2 {
		t.Fatalf("weight=%d want |∩|=2", w)
	}
}

func TestPsiCount(t *testing.T) {
	k1 := [][]int{{1, 2, 3}, {10, 11, 12}, {20, 21, 22}}
	k2 := [][]int{{2, 3, 4}, {30, 31, 32}}
	// With τ=2, only {1,2,3} conflicts ({2,3} shared with {2,3,4}).
	if got := PsiCount(k1, k2, 2, 0); got != 1 {
		t.Fatalf("PsiCount=%d want 1", got)
	}
	if !Psi(k1, k2, 1, 2, 0) || Psi(k1, k2, 2, 2, 0) {
		t.Fatal("Psi thresholding wrong")
	}
}

func TestResidueClasses(t *testing.T) {
	l := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	g := 1 // mod 3
	r0 := ResidueClass(l, 0, g)
	if !reflect.DeepEqual(r0, []int{0, 3, 6, 9}) {
		t.Fatalf("r0=%v", r0)
	}
	a, best := BestResidue(l, g)
	if len(best) < len(l)/3 {
		t.Fatalf("pigeonhole violated: |best|=%d", len(best))
	}
	if a != 0 { // class 0 has 4 elements {0,3,6,9}, ties broken low
		t.Fatalf("a=%d", a)
	}
	// Any two colors in one residue class are > 2g apart.
	for i := 0; i < len(best); i++ {
		for j := i + 1; j < len(best); j++ {
			if best[j]-best[i] <= 2*g {
				t.Fatal("residue class contains close colors")
			}
		}
	}
}

func TestBestResidueGZero(t *testing.T) {
	l := []int{5, 6, 7}
	a, r := BestResidue(l, 0)
	if a != 0 || !reflect.DeepEqual(r, l) {
		t.Fatal("g=0 must return the full list")
	}
}

func TestTauTheoryFormula(t *testing.T) {
	// ⌈8h + 2loglog|C| + 2loglog m + 16⌉ for h=1, |C|=16, m=16:
	// loglog₂16 = 2, so 8 + 4 + 4 + 16 = 32.
	if got := TauTheory(1, 16, 16); got != 32 {
		t.Fatalf("TauTheory=%d want 32", got)
	}
	if TauTheory(2, 16, 16) != 40 {
		t.Fatal("h scaling wrong")
	}
}

func TestKappaFormulas(t *testing.T) {
	// Sanity of the κ slack formulas: positive, monotone in β, with the
	// concrete Lemma 3.8 decomposition dominating the Theorem 1.1
	// statement (its constants are much heavier).
	prev11, prev38 := 0.0, 0.0
	for _, beta := range []int{8, 64, 1 << 10, 1 << 16, 1 << 24} {
		space := beta * beta
		m := beta * beta * 4
		k11 := KappaTheorem11(beta, space, m)
		k38 := KappaLemma38(beta, space, m)
		if k11 <= 0 || k38 <= 0 {
			t.Fatal("κ must be positive")
		}
		if k11 < prev11 || k38 < prev38 {
			t.Fatalf("κ not monotone at β=%d", beta)
		}
		prev11, prev38 = k11, k38
		if k38 < k11 {
			t.Fatalf("β=%d: concrete slack κ38=%.0f below the stated κ11=%.0f", beta, k38, k11)
		}
	}
}

func TestKappaExplainsMissingEvaluation(t *testing.T) {
	// Quantifies DESIGN.md substitution 2 / the E6 constants note: the
	// concrete Lemma 3.8 slack exceeds β itself at every feasible scale —
	// Theorem 1.4's √Δ·polylog only undercuts Θ(Δ) at astronomical Δ.
	feasible := 1 << 16
	if KappaLemma38(feasible, feasible*feasible, feasible*feasible) < float64(feasible) {
		t.Fatalf("slack unexpectedly below β at β=%d", feasible)
	}
	huge := 1 << 24
	if KappaLemma38(huge, huge, huge) > float64(huge) {
		t.Fatalf("slack should finally drop below β at β=2^24")
	}
}

func TestParamsScaling(t *testing.T) {
	p := Practical()
	tau := p.Tau(4, 1<<12, 1<<10)
	if tau < p.TauFloor {
		t.Fatalf("tau=%d below floor", tau)
	}
	th := Theory()
	if th.Tau(4, 1<<12, 1<<10) != TauTheory(4, 1<<12, 1<<10) {
		t.Fatal("theory profile must not scale τ")
	}
	if k := p.KPrime(4, tau); k < 2 || k > p.KPrimeCap {
		t.Fatalf("k'=%d outside [2,%d]", k, p.KPrimeCap)
	}
}

func TestSetSizeDoubling(t *testing.T) {
	p := Practical()
	tau := 3
	s1 := p.SetSize(1, tau, 1<<20)
	s2 := p.SetSize(2, tau, 1<<20)
	if s2 != 2*s1 {
		t.Fatalf("set size must double per γ-class: %d vs %d", s1, s2)
	}
	if p.SetSize(3, tau, 10) != 10 {
		t.Fatal("set size must clamp to list length")
	}
	if p.SetSize(0, tau, 0) != 1 {
		t.Fatal("set size must stay positive")
	}
}

func TestFamilyDeterministic(t *testing.T) {
	ty := Type{InitColor: 5, List: []int{2, 4, 6, 8, 10, 12, 14}, SetSize: 3, NumSets: 4}
	k1 := Family(ty)
	k2 := Family(ty)
	if !reflect.DeepEqual(k1, k2) {
		t.Fatal("equal types must give equal families")
	}
	ty2 := ty
	ty2.InitColor = 6
	if reflect.DeepEqual(k1, Family(ty2)) {
		t.Fatal("different init colors should give different families")
	}
}

func TestFamilyShape(t *testing.T) {
	list := make([]int, 40)
	for i := range list {
		list[i] = i * 3
	}
	k := Family(Type{InitColor: 1, List: list, SetSize: 7, NumSets: 9})
	if len(k) != 9 {
		t.Fatalf("family size %d", len(k))
	}
	for _, set := range k {
		if len(set) != 7 {
			t.Fatalf("set size %d", len(set))
		}
		if !sort.IntsAreSorted(set) {
			t.Fatal("set not sorted")
		}
		for i := 1; i < len(set); i++ {
			if set[i] == set[i-1] {
				t.Fatal("duplicate element in set")
			}
		}
		for _, x := range set {
			if x%3 != 0 || x < 0 || x >= 120 {
				t.Fatalf("element %d not from list", x)
			}
		}
	}
}

func TestFamilyClampsOversizedSets(t *testing.T) {
	k := Family(Type{InitColor: 0, List: []int{1, 2, 3}, SetSize: 10, NumSets: 2})
	for _, set := range k {
		if len(set) != 3 {
			t.Fatalf("set size %d, want clamped 3", len(set))
		}
	}
}

func TestFamilyLowConflict(t *testing.T) {
	// Distinct types over a large space should produce families with no
	// Ψ-conflicts at τ=2 — the statistical analogue of Lemma 3.1.
	space := 1 << 14
	rng := rand.New(rand.NewSource(42))
	mkType := func(c int) Type {
		return Type{InitColor: c, List: randSet(rng, 200, space), SetSize: 8, NumSets: 16}
	}
	fams := make([][][]int, 12)
	for i := range fams {
		fams[i] = Family(mkType(i))
	}
	tau := 2
	for i := range fams {
		for j := range fams {
			if i == j {
				continue
			}
			if cnt := PsiCount(fams[i], fams[j], tau, 0); cnt > 2 {
				t.Fatalf("families %d,%d have %d conflicting sets", i, j, cnt)
			}
		}
	}
}

// TestTypeSeedMatchesFNV pins the inline seed to hash/fnv's FNV-1a over
// the little-endian 8-byte field encodings, on types whose fields and
// list values are negative, small, or at least 2^32.
func TestTypeSeedMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	draw := func() int {
		switch rng.Intn(4) {
		case 0:
			return -rng.Intn(1 << 40)
		case 1:
			return rng.Intn(1 << 16)
		case 2:
			return 1<<32 + rng.Intn(1<<40)
		default:
			return int(rng.Uint64())
		}
	}
	for i := 0; i < 300; i++ {
		ty := Type{InitColor: draw(), SetSize: draw(), NumSets: draw(), List: make([]int, rng.Intn(50))}
		for j := range ty.List {
			ty.List[j] = draw()
		}
		h := fnv.New64a()
		for _, x := range append([]int{ty.InitColor, ty.SetSize, ty.NumSets, len(ty.List)}, ty.List...) {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
		}
		if got, want := ty.seed(), h.Sum64(); got != want {
			t.Fatalf("type %d: seed %#x, want %#x", i, got, want)
		}
	}
}

func randSet(rng *rand.Rand, size, space int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < size {
		x := rng.Intn(space)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}
