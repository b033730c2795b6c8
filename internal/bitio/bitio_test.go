package bitio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter()
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	if w.Len() != len(bits) {
		t.Fatalf("Len=%d", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range bits {
		if got := r.ReadBit(); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	f := func(x uint64, extra uint8) bool {
		width := WidthFor(int(x%1000000)) + int(extra%8)
		if width > 64 {
			width = 64
		}
		val := x
		if width < 64 {
			val = x & ((1 << uint(width)) - 1)
		}
		w := NewWriter()
		w.WriteUint(val, width)
		r := NewReader(w.Bytes(), w.Len())
		return r.ReadUint(width) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUintWidthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overflow value")
		}
	}()
	NewWriter().WriteUint(8, 3)
}

func TestEliasGamma(t *testing.T) {
	w := NewWriter()
	vals := []uint64{1, 2, 3, 4, 7, 8, 100, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		w.WriteEliasGamma(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, v := range vals {
		if got := r.ReadEliasGamma(); got != v {
			t.Fatalf("got %d want %d", got, v)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits left over", r.Remaining())
	}
}

func TestEliasGammaLength(t *testing.T) {
	// gamma(1) is 1 bit, gamma(2..3) is 3 bits, gamma(4..7) is 5 bits.
	for _, tc := range []struct {
		v    uint64
		bits int
	}{{1, 1}, {2, 3}, {3, 3}, {4, 5}, {7, 5}, {8, 7}} {
		w := NewWriter()
		w.WriteEliasGamma(tc.v)
		if w.Len() != tc.bits {
			t.Fatalf("gamma(%d) = %d bits, want %d", tc.v, w.Len(), tc.bits)
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		x %= 1 << 62
		w := NewWriter()
		w.WriteVarint(x)
		r := NewReader(w.Bytes(), w.Len())
		return r.ReadVarint() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		universe := 1 + rng.Intn(200)
		var set []int
		seen := map[int]bool{}
		for i := 0; i < rng.Intn(universe); i++ {
			x := rng.Intn(universe)
			if !seen[x] {
				seen[x] = true
				set = append(set, x)
			}
		}
		w := NewWriter()
		w.WriteBitset(set, universe)
		if w.Len() != universe {
			t.Fatalf("bitset over %d should be exactly %d bits, got %d", universe, universe, w.Len())
		}
		r := NewReader(w.Bytes(), w.Len())
		got := r.ReadBitset(universe)
		if len(got) != len(set) {
			t.Fatalf("got %d elements want %d", len(got), len(set))
		}
		for _, x := range got {
			if !seen[x] {
				t.Fatalf("unexpected element %d", x)
			}
		}
	}
}

// TestBitsetOutOfUniverse: an element outside [0, universe) panics, and
// the writer keeps the bits and length it had, whether the bitset would
// have started on a byte boundary or inside a byte, and whether the bad
// element comes first or after members whose bits were already set.
func TestBitsetOutOfUniverse(t *testing.T) {
	for _, prefix := range []int{0, 3, 8, 13} {
		for _, set := range [][]int{{-1}, {10}, {0, 1, 2, 9, 10}, {5, 9, 3, -7}, {4, 1 << 40}} {
			w := NewWriter()
			w.WriteUint(1<<uint(prefix)-1, prefix)
			before := append([]byte(nil), w.Bytes()...)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("prefix %d, set %v: no panic", prefix, set)
					}
				}()
				w.WriteBitset(set, 10)
			}()
			if w.Len() != prefix || !bytes.Equal(w.Bytes(), before) {
				t.Fatalf("prefix %d, set %v: writer %d bits %x, want %d bits %x", prefix, set, w.Len(), w.Bytes(), prefix, before)
			}
			// The writer goes on as if the call had not happened.
			w.WriteBitset([]int{0, 9}, 10)
			ref := NewWriter()
			ref.WriteUint(1<<uint(prefix)-1, prefix)
			ref.WriteBitset([]int{0, 9}, 10)
			if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("prefix %d, set %v: next write gives %x, want %x", prefix, set, w.Bytes(), ref.Bytes())
			}
		}
	}
}

func TestWidthFor(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11}} {
		if got := WidthFor(tc.n); got != tc.w {
			t.Fatalf("WidthFor(%d)=%d want %d", tc.n, got, tc.w)
		}
	}
}

func TestMixedStream(t *testing.T) {
	w := NewWriter()
	w.WriteBit(1)
	w.WriteUint(5, 3)
	w.WriteVarint(0)
	w.WriteEliasGamma(9)
	w.WriteBitset([]int{0, 2}, 4)
	r := NewReader(w.Bytes(), w.Len())
	if r.ReadBit() != 1 || r.ReadUint(3) != 5 || r.ReadVarint() != 0 || r.ReadEliasGamma() != 9 {
		t.Fatal("mixed stream corrupted")
	}
	got := r.ReadBitset(4)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("bitset got %v", got)
	}
	if r.Remaining() != 0 {
		t.Fatal("leftover bits")
	}
}

func TestReadPastEndSetsErr(t *testing.T) {
	r := NewReader(nil, 0)
	if got := r.ReadBit(); got != 0 {
		t.Fatalf("ReadBit past end = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Sticky: further reads keep returning zero values with the same error.
	if r.ReadUint(8) != 0 || r.ReadVarint() != 0 {
		t.Fatal("reads after error must return zero values")
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err overwritten: %v", r.Err())
	}
}

func TestTruncatedVarintSetsErr(t *testing.T) {
	w := NewWriter()
	w.WriteVarint(1 << 20)
	for cut := 0; cut < w.Len(); cut++ {
		r := NewReader(w.Bytes(), cut)
		_ = r.ReadVarint()
		if r.Err() == nil {
			t.Fatalf("cut=%d: truncated varint decoded without error", cut)
		}
	}
}

func TestMalformedEliasGammaSetsErr(t *testing.T) {
	// 70 zero bits: a gamma prefix longer than any encodable value.
	w := NewWriter()
	for i := 0; i < 70; i++ {
		w.WriteBit(0)
	}
	r := NewReader(w.Bytes(), w.Len())
	if got := r.ReadEliasGamma(); got != 0 {
		t.Fatalf("malformed gamma = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("Err = %v, want ErrMalformed", r.Err())
	}
}

func TestNewReaderRejectsOverlongLength(t *testing.T) {
	r := NewReader([]byte{0xFF}, 64)
	if r.Err() == nil {
		t.Fatal("nbit beyond the buffer must mark the reader malformed")
	}
	if r.ReadBit() != 0 {
		t.Fatal("malformed reader must return zero bits")
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter()
	w.WriteUint(0xAB, 8)
	w.WriteVarint(1234)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.WriteUint(5, 3)
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	if r.ReadUint(3) != 5 {
		t.Fatal("stale bits survived Reset")
	}
	// The buffer must be retained (no realloc) for pooled reuse.
	w.Reset()
	if cap(w.buf) == 0 {
		t.Fatal("Reset discarded the buffer")
	}
}

// TestWriterAllocs pins that a warm writer encodes a 2^15-color
// characteristic vector — the size of a type message list over |C| = 2^15
// — without allocating.
func TestWriterAllocs(t *testing.T) {
	const universe = 1 << 15
	rng := rand.New(rand.NewSource(5))
	set := make([]int, 3500)
	for i := range set {
		set[i] = rng.Intn(universe)
	}
	w := NewWriter()
	w.WriteBitset(set, universe)
	allocs := testing.AllocsPerRun(50, func() {
		w.Reset()
		w.WriteUint(5, 3)
		w.WriteBitset(set, universe)
	})
	if allocs != 0 {
		t.Fatalf("warm WriteBitset allocated %.1f times per call", allocs)
	}
}
