package bitio

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// digestMixedStream pins the bytes and length of one fixed stream that
// uses every write form: single bits, fixed widths from 0 to 64 at every
// byte offset, Elias gamma, varints, and bitsets with duplicate elements
// over universes that start and end mid-byte.
const digestMixedStream = "138d2a471714eebf"

func TestDigestMixedStream(t *testing.T) {
	w := NewWriter()
	w.WriteBit(1)
	w.WriteUint(5, 3)
	w.WriteUint(0xdeadbeef, 32)
	w.WriteUint(1<<63|0x1234, 64)
	w.WriteUint(0, 0)
	w.WriteVarint(0)
	w.WriteVarint(123456)
	w.WriteEliasGamma(1<<40 + 7)
	w.WriteBitset([]int{0, 3, 3, 64, 99}, 100)
	w.WriteBit(0)
	w.WriteBitset(nil, 13)
	x := uint64(0x9e3779b97f4a7c15)
	for width := 0; width <= 64; width++ {
		v := x
		if width < 64 {
			v &= 1<<uint(width) - 1
		}
		w.WriteUint(v, width)
		x = x*6364136223846793005 + 1442695040888963407
	}
	set := make([]int, 0, 700)
	for i := 0; i < 700; i++ {
		set = append(set, int(x>>33)%4099)
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.WriteBitset(set, 4099)
	w.WriteUint(0x7f, 7)
	sum := sha256.Sum256(w.Bytes())
	if got := hex.EncodeToString(sum[:8]); got != digestMixedStream {
		t.Errorf("mixed stream: digest %s, want %s", got, digestMixedStream)
	}
	// 1+3+32+64+0 + 1+33+81 + 100+1+13 + Σ_{0..64} width + 4099+7 bits.
	if w.Len() != 6515 {
		t.Errorf("mixed stream: Len %d", w.Len())
	}
}
