package bitio

import (
	"math/rand"
	"testing"
)

// BenchmarkWriteBitset times the characteristic vector of a type
// message's list at the oldc-d128 shape: 4,700 colors over 2^15.
func BenchmarkWriteBitset(b *testing.B) {
	const universe = 1 << 15
	set := rand.New(rand.NewSource(5)).Perm(universe)[:4700]
	w := NewWriter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.WriteBitset(set, universe)
	}
}
