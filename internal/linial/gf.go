// Package linial implements the classic color-reduction substrate the
// paper builds on:
//
//   - Linial's one-round color reduction via polynomial (Reed–Solomon)
//     cover-free families [Lin87], iterated to reach O(β²) colors in
//     O(log* m) rounds;
//   - Kuhn's defective variant [Kuh09], which trades defect for a smaller
//     color space (d-defective colorings with O((β·D/(d+1))²) colors);
//   - an SV93/BEG18-style "pair/singleton row shift" reduction that turns a
//     proper O(Δ²)-coloring into a proper O(Δ)-coloring in O(Δ) rounds, and
//     its arbdefective generalization (d-arbdefective O(Δ/d)-coloring in
//     O(Δ/d + log* n) rounds), used as the bootstrap clustering for the
//     paper's Theorem 1.3.
package linial

import (
	"fmt"
	"math/bits"
)

// SmallestPrimeAtLeast returns the smallest prime >= n (n >= 2).
func SmallestPrimeAtLeast(n int) int {
	if n <= 2 {
		return 2
	}
	for p := n; ; p++ {
		if isPrime(p) {
			return p
		}
	}
}

func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}

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

// gfStep is a reusable fast evaluator for one reduction step's field GF(q):
// it caches the Barrett reciprocal for mod-q arithmetic and the base-q digit
// expansion of one loaded color, so a round's many digit expansions and
// polynomial evaluations run without integer division or allocation.
// Outputs are bit-identical to the naive polyEval — the equivalence test
// and fuzz target in gf_test.go pin this.
type gfStep struct {
	q      uint64
	mhi    uint64 // ⌊2^63 / q⌋, the Barrett reciprocal
	deg    int
	digits []uint64 // base-q digits of the loaded color, ascending
}

// init (re)configures the evaluator for a step, reusing the digit buffer.
// q must fit in 31 bits so every Horner accumulator stays below 2^63, the
// reduce precondition; chooseStep's fields are tiny, so the guard is a
// correctness backstop, not a practical limit.
func (s *gfStep) init(sp stepParams) {
	if sp.q < 2 || sp.q >= 1<<31 {
		panic(fmt.Sprintf("linial: field size %d outside [2, 2^31)", sp.q))
	}
	s.q = uint64(sp.q)
	s.mhi = (uint64(1) << 63) / s.q
	s.deg = sp.deg
	if cap(s.digits) < sp.deg+1 {
		s.digits = make([]uint64, sp.deg+1)
	}
	s.digits = s.digits[:sp.deg+1]
}

// divmod returns ⌊v/q⌋ and v mod q via Barrett reduction: the estimate
// ⌊v·mhi/2^63⌋ is at most 2 short of ⌊v/q⌋ for any 64-bit v, leaving at
// most two correction steps and no hardware divide.
func (s *gfStep) divmod(v uint64) (quo, rem uint64) {
	hi, lo := bits.Mul64(v, s.mhi)
	quo = hi<<1 | lo>>63
	rem = v - quo*s.q
	for rem >= s.q {
		quo++
		rem -= s.q
	}
	return quo, rem
}

// reduce returns v mod q.
func (s *gfStep) reduce(v uint64) uint64 {
	_, r := s.divmod(v)
	return r
}

// expand writes the base-q digits of color c into dst, lowest first,
// mirroring polyEval's expansion (including its does-not-fit panic).
// len(dst) is the step's digit count deg+1.
func (s *gfStep) expand(c int, dst []uint64) {
	u := uint64(c)
	for i := range dst {
		u, dst[i] = s.divmod(u)
	}
	if u != 0 {
		panic(fmt.Sprintf("linial: color does not fit in %d base-%d digits", s.deg+1, s.q))
	}
}

// load expands color c into the evaluator's own digit buffer.
func (s *gfStep) load(c int) { s.expand(c, s.digits) }

// horner evaluates the polynomial with the given ascending digits at x —
// the same highest-digit-first recurrence as polyEval, with the modulus
// taken by reduce. Requires x < q.
func (s *gfStep) horner(digits []uint64, x uint64) uint64 {
	acc := uint64(0)
	for i := len(digits) - 1; i >= 0; i-- {
		acc = s.reduce(acc*x + digits[i])
	}
	return acc
}

// evalAt returns the loaded polynomial's value at x.
func (s *gfStep) evalAt(x uint64) uint64 { return s.horner(s.digits, x) }

// stepParams holds the parameters of one polynomial reduction step.
type stepParams struct {
	q   int // field size (prime)
	deg int // polynomial degree bound D
}

// chooseStep picks the cheapest polynomial step that maps an m-coloring to
// a q²-coloring: the smallest degree D >= 1 such that the smallest prime
// q > qFloor(D) satisfies q^(D+1) >= m.
func chooseStep(m int, qFloor func(deg int) int) stepParams {
	for deg := 1; ; deg++ {
		q := SmallestPrimeAtLeast(qFloor(deg) + 1)
		if powAtLeast(q, deg+1, m) {
			return stepParams{q: q, deg: deg}
		}
	}
}

// powAtLeast reports q^e >= m. Values stay far below overflow because the
// loop exits as soon as the accumulator reaches m.
func powAtLeast(q, e, m int) bool {
	acc := 1
	for i := 0; i < e; i++ {
		acc *= q
		if acc >= m {
			return true
		}
	}
	return acc >= m
}
