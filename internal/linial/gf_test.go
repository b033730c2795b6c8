package linial

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// polyEval evaluates the polynomial whose base-q digits are the
// coefficients of c at point x over GF(q): f_c(x) = Σ digit_i(c) x^i mod q.
// Distinct values c < q^(deg+1) give distinct polynomials of degree <= deg,
// which agree on at most deg points — the cover-free property Linial's
// reduction needs.
func polyEval(c, x, q, deg int) int {
	// Horner evaluation over the base-q digit expansion, highest digit
	// first.
	digits := make([]int, deg+1)
	for i := 0; i <= deg; i++ {
		digits[i] = c % q
		c /= q
	}
	if c != 0 {
		panic(fmt.Sprintf("linial: color does not fit in %d base-%d digits", deg+1, q))
	}
	acc := 0
	for i := deg; i >= 0; i-- {
		acc = (acc*x + digits[i]) % q
	}
	return acc
}

// gfTestCases spans small and large fields, degree 1..6: the shapes the
// Theorem 1.4 pipeline runs on G(16384, 64/16383) — stage 1's defective
// GF(7) degree-4 step and the later stages' (7,5), (7,6), (5,5), (13,4),
// (3,4) and (2,3) steps — plus the largest field init accepts, whose
// full-size digits give terms near q² ≈ 2^62. A 64-bit color has at most
// two full-size digits there, so its sums stay near 2^62 and never reach
// dot's 2^63 guard; TestGFStepDotGuard's synthetic digit vectors do.
var gfTestCases = []stepParams{
	{q: 2, deg: 1},
	{q: 3, deg: 2},
	{q: 7, deg: 1},
	{q: 13, deg: 3},
	{q: 31, deg: 2},
	{q: 101, deg: 2},
	{q: 257, deg: 4},
	{q: 7, deg: 4},
	{q: 7, deg: 5},
	{q: 7, deg: 6},
	{q: 5, deg: 5},
	{q: 13, deg: 4},
	{q: 3, deg: 4},
	{q: 2, deg: 3},
	{q: 1<<31 - 1, deg: 3},
}

// colorSpace returns q^(deg+1), the step's color space, capped at the
// largest int.
func colorSpace(sp stepParams) int {
	space := 1
	for i := 0; i <= sp.deg; i++ {
		if space > math.MaxInt/sp.q {
			return math.MaxInt
		}
		space *= sp.q
	}
	return space
}

// testPoints returns every point of a small field and a spread of points,
// the extremes included, of a large one.
func testPoints(q int) []int {
	if q <= 4096 {
		xs := make([]int, q)
		for x := range xs {
			xs[x] = x
		}
		return xs
	}
	xs := []int{0, 1, 2, q/2 + 1, q - 2, q - 1}
	rng := rand.New(rand.NewSource(int64(q)))
	for i := 0; i < 26; i++ {
		xs = append(xs, rng.Intn(q))
	}
	return xs
}

// evalAt evaluates color c's polynomial at x through the kernel: digit
// expansion, the powers of x and one dot product.
func evalAt(ev *gfStep, c, x int) int {
	digits := make([]uint64, ev.deg+1)
	pw := make([]uint64, ev.deg+1)
	ev.expand(c, digits)
	ev.powers(uint64(x), pw)
	return int(ev.dot(digits, pw))
}

func TestGFStepMatchesPolyEval(t *testing.T) {
	for _, sp := range gfTestCases {
		var ev gfStep
		ev.init(sp)
		// Walk a spread of colors covering the full digit space.
		space := colorSpace(sp)
		stride := space/512 + 1
		for c := 0; c >= 0 && c < space; c += stride {
			for _, x := range testPoints(sp.q) {
				want := polyEval(c, x, sp.q, sp.deg)
				if got := evalAt(&ev, c, x); got != want {
					t.Fatalf("q=%d deg=%d c=%d x=%d: fast=%d naive=%d",
						sp.q, sp.deg, c, x, got, want)
				}
			}
		}
	}
}

// TestGFStepDotGuard checks dot against exact big-integer arithmetic on
// digit vectors a color cannot reach in the largest field: every digit up
// to q−1, so up to seven terms near 2^62 each. Five or more such terms
// overflow a plain 64-bit sum; these vectors are the only inputs that
// reach dot's 2^63 guard.
func TestGFStepDotGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sp := range []stepParams{{q: 1<<31 - 1, deg: 3}, {q: 1<<31 - 1, deg: 6}, {q: 2147483629, deg: 4}} {
		var ev gfStep
		ev.init(sp)
		digits := make([]uint64, sp.deg+1)
		pw := make([]uint64, sp.deg+1)
		for iter := 0; iter < 200; iter++ {
			for i := range digits {
				digits[i] = uint64(sp.q) - 1 - uint64(rng.Intn(1+iter%4*1000))
			}
			x := sp.q - 1 - rng.Intn(1+iter%3*1000)
			ev.powers(uint64(x), pw)
			want, q, xi := new(big.Int), big.NewInt(int64(sp.q)), big.NewInt(1)
			for _, d := range digits {
				want.Add(want, new(big.Int).Mul(new(big.Int).SetUint64(d), xi))
				xi.Mul(xi, big.NewInt(int64(x))).Mod(xi, q)
			}
			want.Mod(want, q)
			if got := ev.dot(digits, pw); got != want.Uint64() {
				t.Fatalf("q=%d deg=%d digits=%v x=%d: dot=%d exact=%d", sp.q, sp.deg, digits, x, got, want.Uint64())
			}
		}
	}
}

func TestGFStepRejectsHugeField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("q >= 2^31 must panic")
		}
	}()
	var ev gfStep
	ev.init(stepParams{q: 1 << 31, deg: 1})
}

func TestGFStepReuseAcrossSteps(t *testing.T) {
	// One field re-initialized across steps with different (q, deg) must
	// keep matching the naive reference, both through a fresh power row
	// and, where the table is small, through the table itself — the
	// per-step rebuild reduceAlg.Done does.
	var ev gfStep
	digits := make([]uint64, 0, 8)
	for _, sp := range gfTestCases {
		ev.init(sp)
		small := sp.q <= 4096
		if small {
			ev.table()
		}
		digits = digits[:sp.deg+1]
		ev.expand(sp.q+1, digits) // {1, 1, 0, ...}
		pw := make([]uint64, sp.deg+1)
		for _, x := range testPoints(sp.q) {
			want := polyEval(sp.q+1, x, sp.q, sp.deg)
			ev.powers(uint64(x), pw)
			if got := int(ev.dot(digits, pw)); got != want {
				t.Fatalf("q=%d deg=%d x=%d: fast=%d naive=%d", sp.q, sp.deg, x, got, want)
			}
			if small {
				if got := int(ev.dot(digits, ev.row(uint64(x)))); got != want {
					t.Fatalf("q=%d deg=%d x=%d: table=%d naive=%d", sp.q, sp.deg, x, got, want)
				}
			}
		}
	}
}

// FuzzPolyEval cross-checks the Barrett evaluator against the naive
// reference over fuzzer-chosen colors and points.
func FuzzPolyEval(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint8(0))
	f.Add(uint32(12345), uint32(7), uint8(3))
	f.Add(^uint32(0), ^uint32(0), ^uint8(0))
	f.Add(^uint32(0), ^uint32(0), uint8(7))
	f.Add(^uint32(0), ^uint32(0), uint8(14))
	f.Fuzz(func(t *testing.T, rawC, rawX uint32, pick uint8) {
		sp := gfTestCases[int(pick)%len(gfTestCases)]
		c := int(rawC) % colorSpace(sp)
		if sp.q > 1<<16 {
			// Colors with two full-size digits, terms near 2^62. No
			// color reaches dot's guard; TestGFStepDotGuard covers it.
			c = int(uint64(rawC)<<31 | uint64(rawX))
		}
		x := int(rawX) % sp.q
		var ev gfStep
		ev.init(sp)
		if got, want := evalAt(&ev, c, x), polyEval(c, x, sp.q, sp.deg); got != want {
			t.Fatalf("q=%d deg=%d c=%d x=%d: fast=%d naive=%d", sp.q, sp.deg, c, x, got, want)
		}
	})
}

func TestGFStepEvalAllocs(t *testing.T) {
	sp := stepParams{q: 101, deg: 2}
	var ev gfStep
	ev.init(sp)
	ev.table()
	digits := make([]uint64, sp.deg+1)
	allocs := testing.AllocsPerRun(100, func() {
		ev.expand(4242, digits)
		s := uint64(0)
		for x := 0; x < sp.q; x++ {
			s += ev.dot(digits, ev.row(uint64(x)))
		}
		if s == ^uint64(0) {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("full-field evaluation allocated %.1f times", allocs)
	}
}

func BenchmarkPolyEvalNaive(b *testing.B) {
	sp := stepParams{q: 101, deg: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := 0
		for x := 0; x < sp.q; x++ {
			s += polyEval(4242, x, sp.q, sp.deg)
		}
		if s < 0 {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkGFEvalAll(b *testing.B) {
	sp := stepParams{q: 101, deg: 2}
	var ev gfStep
	ev.init(sp)
	ev.table()
	digits := make([]uint64, sp.deg+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.expand(4242, digits)
		s := uint64(0)
		for x := 0; x < sp.q; x++ {
			s += ev.dot(digits, ev.row(uint64(x)))
		}
		if s == ^uint64(0) {
			b.Fatal("unreachable")
		}
	}
}
