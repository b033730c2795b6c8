// Package bitio implements bit-granular encoding used to account for
// CONGEST message sizes faithfully: the simulator measures the exact number
// of bits each algorithm puts on a wire per round, rather than counting
// words or structs.
//
// The encodings offered match the ones the paper's message-size analyses
// assume: fixed-width fields (log|C| bits per color), characteristic
// bit vectors (|C| bits per color set), Elias-gamma for self-delimiting
// integers, and unsigned varints.
package bitio

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Typed decode errors. A Reader records the first failure it encounters
// (sticky, like bufio.Scanner): subsequent reads return zero values, and
// decoders check Err once after parsing a whole message instead of wrapping
// every field read. Corrupted or truncated wire payloads therefore surface
// as typed errors rather than panics.
var (
	// ErrTruncated reports a read past the end of the bit string.
	ErrTruncated = errors.New("bitio: truncated input")
	// ErrMalformed reports a syntactically invalid code (e.g. an Elias
	// gamma prefix longer than any encodable value).
	ErrMalformed = errors.New("bitio: malformed code")
)

// Writer accumulates a bit string.
type Writer struct {
	buf  []byte
	nbit int
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Reset empties the Writer for reuse, retaining the underlying buffer so
// that pooled Writers (e.g. the simulator's per-round accounting) write
// without allocating in the steady state.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Bytes returns the accumulated bits packed MSB-first into bytes.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteUint appends the low `width` bits of x, MSB first. width must be in
// [0, 64] and x must fit.
func (w *Writer) WriteUint(x uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: bad width %d", width))
	}
	if width < 64 && x>>uint(width) != 0 {
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", x, width))
	}
	// Up to 8 bits per step: the next bits of x fill the current byte's
	// free low bits.
	for width > 0 {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit%8
		n := min(free, width)
		width -= n
		chunk := x >> uint(width) & (1<<uint(n) - 1)
		w.buf[len(w.buf)-1] |= byte(chunk << uint(free-n))
		w.nbit += n
	}
}

// WriteEliasGamma appends x >= 1 in Elias gamma code (2*floor(log2 x)+1
// bits).
func (w *Writer) WriteEliasGamma(x uint64) {
	if x == 0 {
		panic("bitio: Elias gamma needs x >= 1")
	}
	n := bits.Len64(x) - 1
	w.WriteUint(0, n)
	w.WriteUint(x, n+1)
}

// WriteVarint appends x as a self-delimiting Elias-gamma coded value,
// shifted so that 0 is representable.
func (w *Writer) WriteVarint(x uint64) { w.WriteEliasGamma(x + 1) }

// WriteBitset appends the characteristic vector of the set over a universe
// of the given size: exactly `universe` bits. Elements may repeat. An
// element outside [0, universe) panics and leaves the writer as it was.
func (w *Writer) WriteBitset(set []int, universe int) {
	if universe < 0 {
		panic(fmt.Sprintf("bitio: bad universe %d", universe))
	}
	// Extend with zero bytes (cleared: a reused buffer's capacity holds
	// stale bytes), then range-check each member and set its bit in one
	// pass.
	start, n := w.nbit, len(w.buf)
	end := start + universe
	w.buf = slices.Grow(w.buf, (end+7)/8-n)[:(end+7)/8]
	clear(w.buf[n:])
	for _, x := range set {
		if uint(x) >= uint(universe) {
			w.buf = w.buf[:n]
			if start%8 != 0 {
				w.buf[n-1] &^= 0xFF >> uint(start%8) // the bits past start
			}
			panic(fmt.Sprintf("bitio: element %d outside universe %d", x, universe))
		}
		p := uint(start) + uint(x)
		w.buf[p/8] |= 1 << (7 - p%8)
	}
	w.nbit = end
}

// Reader consumes a bit string produced by Writer. Reads past the end or
// over malformed codes do not panic: they set a sticky error (Err) and
// return zero values, so decoders stay crash-safe on corrupted input.
type Reader struct {
	buf  []byte
	pos  int
	nbit int
	err  error
}

// NewReader returns a Reader over nbit bits of buf. A negative nbit, or an
// nbit larger than buf holds, marks the Reader malformed from the start.
func NewReader(buf []byte, nbit int) *Reader {
	r := &Reader{buf: buf, nbit: nbit}
	if nbit < 0 || nbit > len(buf)*8 {
		r.nbit = 0
		r.err = ErrMalformed
	}
	return r
}

// Err returns the first decode error encountered, or nil. Once set, every
// subsequent read returns zero values without advancing.
func (r *Reader) Err() error { return r.err }

// fail records the first error; later failures never overwrite it.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes one bit. Past the end it sets ErrTruncated and
// returns 0.
func (r *Reader) ReadBit() uint {
	if r.err != nil {
		return 0
	}
	if r.pos >= r.nbit {
		r.fail(ErrTruncated)
		return 0
	}
	b := uint(r.buf[r.pos/8]>>(7-uint(r.pos%8))) & 1
	r.pos++
	return b
}

// ReadUint consumes a fixed-width unsigned integer.
func (r *Reader) ReadUint(width int) uint64 {
	var x uint64
	for i := 0; i < width; i++ {
		x = x<<1 | uint64(r.ReadBit())
	}
	return x
}

// ReadEliasGamma consumes an Elias-gamma coded value. A zero-run prefix
// longer than any encodable value sets ErrMalformed.
func (r *Reader) ReadEliasGamma() uint64 {
	n := 0
	for r.ReadBit() == 0 {
		if r.err != nil {
			return 0
		}
		n++
		if n > 63 {
			r.fail(ErrMalformed)
			return 0
		}
	}
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x<<1 | uint64(r.ReadBit())
	}
	if r.err != nil {
		return 0
	}
	return x
}

// ReadVarint consumes a value written by WriteVarint.
func (r *Reader) ReadVarint() uint64 {
	x := r.ReadEliasGamma()
	if r.err != nil {
		return 0
	}
	return x - 1
}

// ReadBitset consumes a characteristic vector over the given universe.
func (r *Reader) ReadBitset(universe int) []int {
	var set []int
	for i := 0; i < universe; i++ {
		if r.ReadBit() == 1 {
			set = append(set, i)
		}
	}
	return set
}

// WidthFor returns the number of bits needed to address values in [0, n),
// i.e. ceil(log2 n), with WidthFor(0) == WidthFor(1) == 0.
func WidthFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}
