package cover

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// digestFamilies pins the candidate families of fixed types: their FNV
// seeds, the Family sets, and the cached form's sets and compact
// membership index. Family derivation is the P2 solution every oldc and
// fk24 run reads, so these values are fixed strings rather than a
// comparison with code that could drift alongside it.
const digestFamilies = "9e8336e41797eb87"

// digestTypes are the pinned types: list values below 2^16, at and above
// 2^16 and above 2^32, families past the 64-set mask width, and set sizes
// at and beyond the list length.
func digestTypes() []Type {
	rng := rand.New(rand.NewSource(41))
	shift := func(l []int, by int) []int {
		for i := range l {
			l[i] += by
		}
		return l
	}
	return []Type{
		{InitColor: 0, List: randSet(rng, 40, 1000), SetSize: 5, NumSets: 8},
		{InitColor: 77, List: randSet(rng, 300, 1<<15), SetSize: 24, NumSets: 16},
		{InitColor: 1 << 20, List: shift(randSet(rng, 120, 1<<12), 1<<16-60), SetSize: 12, NumSets: 12},
		{InitColor: 3, List: shift(randSet(rng, 90, 1<<20), 1<<32), SetSize: 9, NumSets: 64},
		{InitColor: 1<<40 + 5, List: shift(randSet(rng, 70, 1<<30), 1<<41), SetSize: 7, NumSets: 70},
		{InitColor: 9, List: randSet(rng, 6, 50), SetSize: 6, NumSets: 4},
		{InitColor: 10, List: randSet(rng, 6, 50), SetSize: 11, NumSets: 3},
	}
}

func TestDigestFamilies(t *testing.T) {
	h := sha256.New()
	cache := NewFamilyCache()
	for _, ty := range digestTypes() {
		cf := NewFamilyCache().Get(ty)
		fmt.Fprintf(h, "%#v|%#v|%#v|%#v|%#v|%#v\x00", ty.seed(), Family(ty), cf.Sets, cf.NzColors, cf.NzMask, cache.Get(ty).Sets)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != digestFamilies {
		t.Errorf("families: digest %s, want %s", got, digestFamilies)
	}
}
