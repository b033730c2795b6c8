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
	"slices"
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

// gfStep is the field arithmetic of one reduction step over GF(q): the
// Barrett reciprocal for mod-q reduction without a hardware divide, and
// optionally the step's power table, so that evaluating a polynomial at a
// point costs deg+1 multiply-adds and a single reduction. Outputs are
// bit-identical to the naive polyEval — the equivalence tests and fuzz
// target in gf_test.go pin this.
type gfStep struct {
	q   uint64
	mhi uint64 // ⌊2^63 / q⌋, the Barrett reciprocal
	deg int
	// pow[x*(deg+1)+i] = x^i mod q for every point x < q, filled by table.
	// Built once per step and shared read-only by concurrent callbacks.
	pow []uint64
}

// init (re)configures the field for a step, dropping any power table. q
// must fit in 31 bits so every product of two residues stays below 2^62,
// which dot's overflow guard relies on; chooseStep's fields are tiny, so
// the check is a correctness backstop, not a practical limit.
func (s *gfStep) init(sp stepParams) {
	if sp.q < 2 || sp.q >= 1<<31 {
		panic(fmt.Sprintf("linial: field size %d outside [2, 2^31)", sp.q))
	}
	s.q = uint64(sp.q)
	s.mhi = (uint64(1) << 63) / s.q
	s.deg = sp.deg
	s.pow = s.pow[:0]
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

// powers writes x^i mod q into dst[i] for i < len(dst). Requires x < q.
func (s *gfStep) powers(x uint64, dst []uint64) {
	p := uint64(1)
	for i := range dst {
		dst[i] = p
		p = s.reduce(p * x)
	}
}

// table fills the power table for every point of the field.
func (s *gfStep) table() {
	w := uint64(s.deg + 1)
	s.pow = slices.Grow(s.pow[:0], int(s.q*w))[:s.q*w]
	for x := uint64(0); x < s.q; x++ {
		s.powers(x, s.pow[x*w:(x+1)*w])
	}
}

// row returns the table's powers of point x.
func (s *gfStep) row(x uint64) []uint64 {
	w := uint64(s.deg + 1)
	return s.pow[x*w : (x+1)*w]
}

// dot returns Σ digits[i]·pw[i] mod q: with pw the powers of x, the value
// at x of the polynomial whose ascending coefficients are digits — the
// same residue as polyEval's Horner recurrence. Every term is below
// q² < 2^62, so reducing the running sum whenever it reaches 2^63 keeps it
// from overflowing. The guard fires only on digit vectors with several
// digits near 2^31; no 64-bit color expands to one, so a color's
// evaluation costs one reduction.
func (s *gfStep) dot(digits, pw []uint64) uint64 {
	pw = pw[:len(digits)]
	sum := uint64(0)
	for i, d := range digits {
		sum += d * pw[i]
		if sum >= 1<<63 {
			sum = s.reduce(sum)
		}
	}
	return s.reduce(sum)
}

// values writes f_c(x) into dst[x] for every point x < len(dst) ≤ q,
// expanding c into digits (len deg+1) first. Requires the power table.
func (s *gfStep) values(c int, digits []uint64, dst []uint32) {
	s.expand(c, digits)
	for x := range dst {
		dst[x] = uint32(s.dot(digits, s.row(uint64(x))))
	}
}

// collisions counts the polynomials in opps — deg+1 ascending digits each,
// back to back — that take the value fx at the point whose powers are pw,
// stopping once the count reaches limit.
func (s *gfStep) collisions(opps, pw []uint64, fx uint64, limit int) int {
	w := len(pw)
	cnt := 0
	for i := 0; i+w <= len(opps) && cnt < limit; i += w {
		if s.dot(opps[i:i+w:i+w], pw) == fx {
			cnt++
		}
	}
	return cnt
}

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
