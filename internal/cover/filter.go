package cover

import (
	"math/bits"
	"slices"
)

// Filter finds the position of a color in one strictly ascending list in
// O(1): it is the g = 0 set intersection of the conflict kernel (its own
// family's nonzero colors against a neighbor's) and of the Phase II counts
// of oldc and fk24 (C_v against a neighbor's candidate set). Load a list
// before the first lookup; each Load reuses the storage of the last.
//
// The filter has two sides. When the list's color range fits in
// 64·nextPow2(len) bits it is exact: bit x−lo is set iff x is in the list,
// and rank[i] counts the set bits of the words before word i, so a hit's
// position is rank[i] plus one popcount. Otherwise it is hashed: bit
// x mod 64·nextPow2(len) is set for every color x of the list, so at most
// one bit in 64 is set and a miss is the common answer, and a binary
// search confirms each hit. Either way the filter holds at most 16 bytes
// of words and 8 bytes of ranks per color, whatever the color values.
type Filter struct {
	list  []int    // the loaded list
	words []uint64 // the bitmap, then a zero word for exact probes past the range
	exact bool
	lo    int     // color of bit 0: exact, list[0]; hashed, 0
	fmask uint    // bit-offset mask: exact, all ones; hashed, 64·nextPow2(len)−1
	rank  []int32 // exact: set bits of words[:i], per word i
}

// Load makes f describe list, which must be strictly ascending. f keeps
// list (not a copy) until the next Load or Unload.
func (f *Filter) Load(list []int) {
	w := 1
	for w < len(list) {
		w *= 2
	}
	f.list = list
	f.exact = len(list) > 0 && list[len(list)-1]-list[0] < 64*w
	f.lo, f.fmask = 0, uint(64*w-1)
	if f.exact {
		f.lo, f.fmask = list[0], ^uint(0)
		w = (list[len(list)-1]-list[0])/64 + 1
	}
	f.words = resize(f.words, w+1)
	clear(f.words)
	for _, x := range list {
		b := uint(x-f.lo) & f.fmask
		f.words[b>>6] |= 1 << (b & 63)
	}
	if f.exact {
		f.rank = resize(f.rank, w+1)
		r := int32(0)
		for i, wd := range f.words {
			f.rank[i] = r
			r += int32(bits.OnesCount64(wd))
		}
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough and allocating exactly n entries otherwise.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Unload drops f's reference to its list; the storage is kept for reuse.
func (f *Filter) Unload() { f.list = nil }

// Pos returns the position of x in the loaded list and whether x is in it.
func (f *Filter) Pos(x int) (int, bool) {
	b := uint(x-f.lo) & f.fmask // exact: below lo wraps past the range
	if f.words[min(b>>6, uint(len(f.words)-1))]&(1<<(b&63)) == 0 {
		return 0, false
	}
	return f.confirm(x)
}

// confirm is Pos for an x whose filter bit is set: on the exact side x is
// in the list and its position is its rank; on the hashed side a binary
// search finds it or rejects an aliased bit.
func (f *Filter) confirm(x int) (int, bool) {
	if f.exact {
		b := uint(x - f.lo)
		i := b >> 6
		return int(f.rank[i]) + bits.OnesCount64(f.words[i]&(1<<(b&63)-1)), true
	}
	return slices.BinarySearch(f.list, x)
}

// AppendCommon appends to dst the positions in the loaded list of the
// colors of ys (strictly ascending) that it holds, ascending, and stops
// after the limit-th; a limit below 1 appends nothing.
func (f *Filter) AppendCommon(dst []int32, ys []int, limit int) []int32 {
	if limit < 1 {
		return dst
	}
	base := len(dst)
	for _, y := range ys {
		if j, ok := f.Pos(y); ok {
			if dst = append(dst, int32(j)); len(dst)-base == limit {
				break
			}
		}
	}
	return dst
}
