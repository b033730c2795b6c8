package bitio

import (
	"bytes"
	"math/bits"
	"testing"
)

// FuzzVarintRoundTrip exercises the self-delimiting integer codec; the
// seed corpus runs under plain `go test`, and `go test -fuzz=FuzzVarint`
// explores further.
func FuzzVarintRoundTrip(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 127, 128, 1 << 20, 1<<62 - 1} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, x uint64) {
		x %= 1 << 62
		w := NewWriter()
		w.WriteVarint(x)
		r := NewReader(w.Bytes(), w.Len())
		if got := r.ReadVarint(); got != x {
			t.Fatalf("round trip: wrote %d read %d", x, got)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bits left over", r.Remaining())
		}
	})
}

// FuzzMixedStream interleaves all codecs driven by a byte script.
func FuzzMixedStream(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint64(42))
	f.Add([]byte{3, 2, 1, 0, 3, 2, 1}, uint64(1<<40))
	f.Fuzz(func(t *testing.T, script []byte, val uint64) {
		if len(script) > 64 {
			script = script[:64]
		}
		w := NewWriter()
		type op struct {
			kind  int
			value uint64
			width int
		}
		var ops []op
		v := val
		for _, b := range script {
			switch b % 4 {
			case 0:
				w.WriteBit(uint(v) & 1)
				ops = append(ops, op{kind: 0, value: v & 1})
			case 1:
				width := int(b%64) + 1
				x := v
				if width < 64 {
					x &= (1 << uint(width)) - 1
				}
				w.WriteUint(x, width)
				ops = append(ops, op{kind: 1, value: x, width: width})
			case 2:
				x := v%(1<<40) + 1
				w.WriteEliasGamma(x)
				ops = append(ops, op{kind: 2, value: x})
			default:
				x := v % (1 << 40)
				w.WriteVarint(x)
				ops = append(ops, op{kind: 3, value: x})
			}
			v = v*6364136223846793005 + 1442695040888963407
		}
		r := NewReader(w.Bytes(), w.Len())
		for i, o := range ops {
			var got uint64
			switch o.kind {
			case 0:
				got = uint64(r.ReadBit())
			case 1:
				got = r.ReadUint(o.width)
			case 2:
				got = r.ReadEliasGamma()
			default:
				got = r.ReadVarint()
			}
			if got != o.value {
				t.Fatalf("op %d kind %d: wrote %d read %d", i, o.kind, o.value, got)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bits left over", r.Remaining())
		}
	})
}

// bitwiseWriter is the reference the Writer is checked against: every
// write goes through one bit at a time, and WriteBitset marks a full
// characteristic vector first.
type bitwiseWriter struct {
	buf  []byte
	nbit int
}

func (w *bitwiseWriter) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

func (w *bitwiseWriter) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

func (w *bitwiseWriter) WriteUint(x uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(uint(x>>uint(i)) & 1)
	}
}

func (w *bitwiseWriter) WriteVarint(x uint64) {
	x++
	n := bits.Len64(x) - 1
	for i := 0; i < n; i++ {
		w.WriteBit(0)
	}
	w.WriteUint(x, n+1)
}

func (w *bitwiseWriter) WriteBitset(set []int, universe int) {
	mark := make([]bool, universe)
	for _, x := range set {
		mark[x] = true
	}
	for _, b := range mark {
		if b {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
}

// FuzzWriterMatchesBitwise drives the Writer and the bit-at-a-time
// reference with the same script of interleaved writes and resets (resets
// leave stale bytes in the reused buffer) and requires identical bytes and
// lengths after every step.
func FuzzWriterMatchesBitwise(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 3, 1}, uint64(0x9e3779b97f4a7c15))
	f.Add([]byte{1, 1, 3, 3, 4, 0, 3, 2, 4, 1}, uint64(1<<63|12345))
	f.Add([]byte{3, 4, 3, 4, 3}, uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, script []byte, val uint64) {
		if len(script) > 64 {
			script = script[:64]
		}
		w := NewWriter()
		var ref bitwiseWriter
		v := val
		for step, b := range script {
			switch b % 5 {
			case 0:
				w.WriteBit(uint(v & 1))
				ref.WriteBit(uint(v & 1))
			case 1:
				width := int(b/5) % 65
				x := v
				if width < 64 {
					x &= 1<<uint(width) - 1
				}
				w.WriteUint(x, width)
				ref.WriteUint(x, width)
			case 2:
				x := v >> (b%63 + 1) // WriteVarint takes x < 2^64−1
				w.WriteVarint(x)
				ref.WriteVarint(x)
			case 3:
				universe := int(v % 300)
				var set []int
				if universe > 0 {
					for i := 0; i < int(b/5)%12; i++ {
						set = append(set, int((v>>uint(5*i))%uint64(universe)))
					}
					if len(set) > 0 {
						set = append(set, set[0]) // a duplicate element
					}
				}
				w.WriteBitset(set, universe)
				ref.WriteBitset(set, universe)
			default:
				w.Reset()
				ref.Reset()
			}
			if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
				t.Fatalf("step %d (op %d): Len %d bytes %x, want Len %d bytes %x",
					step, b%5, w.Len(), w.Bytes(), ref.nbit, ref.buf)
			}
			v = v*6364136223846793005 + 1442695040888963407
		}
	})
}
