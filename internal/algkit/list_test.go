package algkit

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bitio"
	"repro/internal/sim"
)

func encodeList(list []int, spaceSize int) ([]byte, int) {
	w := bitio.NewWriter()
	WriteList(w, list, spaceSize)
	return w.Bytes(), w.Len()
}

func firstColors(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 2 * i
	}
	return out
}

// TestListBranchBoundary checks both encodings on either side of the
// switch: the |C|-bit vector is taken once it is no longer than the flag
// plus WidthFor(|C|) bits per color, and each list reads back exactly.
func TestListBranchBoundary(t *testing.T) {
	for _, c := range []struct{ space, explicit int }{{32, 6}, {4096, 341}} {
		width := bitio.WidthFor(c.space)
		for _, n := range []int{c.explicit, c.explicit + 1} {
			list := firstColors(n)
			buf, nbit := encodeList(list, c.space)
			r := bitio.NewReader(buf, nbit)
			bitset := r.ReadBit() == 0
			if want := c.space <= 1+n*width; bitset != want {
				t.Errorf("|C|=%d, %d colors: bitset branch %v, want %v", c.space, n, bitset, want)
			}
			if bitset && nbit != 1+c.space {
				t.Errorf("|C|=%d, %d colors: bitset form is %d bits", c.space, n, nbit)
			}
			got, err := ReadList(bitio.NewReader(buf, nbit), c.space)
			if err != nil || !reflect.DeepEqual(got, list) {
				t.Fatalf("|C|=%d, %d colors: read %v, %v", c.space, n, got, err)
			}
		}
	}
}

// TestReadListRejects covers every check ReadList makes; each failure is a
// *sim.DecodeError.
func TestReadListRejects(t *testing.T) {
	explicit := func(n uint64, colors ...int) func(w *bitio.Writer) {
		return func(w *bitio.Writer) {
			w.WriteBit(1)
			w.WriteVarint(n)
			for _, c := range colors {
				w.WriteUint(uint64(c), bitio.WidthFor(100))
			}
		}
	}
	for _, c := range []struct {
		name  string
		space int
		write func(w *bitio.Writer)
	}{
		{"empty bitset", 16, func(w *bitio.Writer) { w.WriteBit(0); w.WriteUint(0, 16) }},
		{"truncated bitset", 16, func(w *bitio.Writer) { w.WriteBit(0); w.WriteUint(0xFF, 15) }},
		{"empty explicit", 100, explicit(0)},
		{"truncated length", 100, func(w *bitio.Writer) { w.WriteBit(1) }},
		{"length over the space", 100, explicit(101, firstColors(50)...)},
		{"length over the bits left", 100, explicit(5, 1, 2)},
		{"length over the int range", 100, explicit(1<<63, 1, 2)},
		{"length over the bits left in a large space", 1 << 24, func(w *bitio.Writer) { w.WriteBit(1); w.WriteVarint(1 << 23) }},
		{"color outside the space", 100, explicit(2, 3, 101)},
		{"repeated color", 100, explicit(2, 5, 5)},
		{"descending colors", 100, explicit(2, 9, 3)},
	} {
		w := bitio.NewWriter()
		c.write(w)
		list, err := ReadList(bitio.NewReader(w.Bytes(), w.Len()), c.space)
		var de *sim.DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: got %v, %v; want a *sim.DecodeError", c.name, list, err)
		}
	}
}

// TestReadListTruncations checks that every proper prefix of both
// encodings is rejected.
func TestReadListTruncations(t *testing.T) {
	for _, c := range []struct {
		list  []int
		space int
	}{{[]int{5, 99, 100, 2047, 4095}, 4096}, {firstColors(10), 32}} {
		buf, nbit := encodeList(c.list, c.space)
		for cut := 0; cut < nbit; cut++ {
			if got, err := ReadList(bitio.NewReader(buf, cut), c.space); err == nil {
				t.Errorf("|C|=%d: %d of %d bits read as %v", c.space, cut, nbit, got)
			}
		}
	}
}

// FuzzReadList drives ReadList with arbitrary bits: it never panics, an
// accepted list is non-empty, strictly ascending and inside the space, and
// WriteList's encoding of it reads back to the same list, bit for bit.
func FuzzReadList(f *testing.F) {
	seed := func(list []int, space int) []byte {
		buf, _ := encodeList(list, space)
		return buf
	}
	f.Add(seed([]int{5, 99, 2047}, 4096), uint16(40), uint16(4096))
	f.Add(seed(firstColors(12), 32), uint16(33), uint16(32))
	f.Add([]byte{0xFF, 0x00, 0xAB, 0x13}, uint16(32), uint16(64))
	f.Add([]byte{}, uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, nbitRaw, spaceRaw uint16) {
		space := int(spaceRaw)%(1<<12) + 1
		nbit := min(int(nbitRaw), 8*len(data))
		list, err := ReadList(bitio.NewReader(data, nbit), space)
		if err != nil {
			var de *sim.DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(list) == 0 {
			t.Fatal("accepted an empty list")
		}
		for i, c := range list {
			if c < 0 || c >= space || (i > 0 && c <= list[i-1]) {
				t.Fatalf("accepted list invalid at %d: %v", i, list)
			}
		}
		buf, n := encodeList(list, space)
		r := bitio.NewReader(buf, n)
		again, err := ReadList(r, space)
		if err != nil || !reflect.DeepEqual(again, list) || r.Remaining() != 0 {
			t.Fatalf("re-encoding of %v read %v, %v with %d bits left", list, again, err, r.Remaining())
		}
	})
}
