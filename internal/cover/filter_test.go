package cover

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestFilterSides checks which side a list takes and what it costs: the
// exact side exactly when the list's color range fits in
// 64·nextPow2(len) bits, and at most 16 bytes of words and 8 bytes of
// ranks per color on either side, here for 600 colors near 2^30 spread
// over 2^20 (hashed) or 2^12 (exact), and for ranges one bit short of and
// exactly that capacity.
func TestFilterSides(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	check := func(list []int, exact bool) {
		t.Helper()
		var f Filter
		f.Load(list)
		if f.exact != exact {
			t.Fatalf("%d colors over [%d, %d]: exact %v, want %v", len(list), list[0], list[len(list)-1], f.exact, exact)
		}
		if got, limit := 8*cap(f.words), 16*len(list); got > limit {
			t.Errorf("%d colors: %d bytes of words, limit %d", len(list), got, limit)
		}
		if got, limit := 4*cap(f.rank), 8*len(list); got > limit {
			t.Errorf("%d colors: %d bytes of ranks, limit %d", len(list), got, limit)
		}
		checkFilter(t, &f, list, probesFor(rng, list))
	}
	for _, spread := range []int{1 << 20, 1 << 12} {
		list := randSet(rng, 600, spread)
		for i := range list {
			list[i] += 1<<30 - spread
		}
		check(list, spread < 64*filterWords(len(list)))
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		capacity := 64 * filterWords(n)
		for _, span := range []int{capacity - 1, capacity} {
			lo := rng.Intn(1000)
			list := []int{lo, lo + span}
			for len(list) < n {
				if x := lo + 1 + rng.Intn(span-1); !slices.Contains(list, x) {
					list = append(list, x)
				}
			}
			sort.Ints(list)
			check(list, span < capacity)
		}
	}
	check([]int{7}, true)
	var empty Filter
	empty.Load(nil)
	checkFilter(t, &empty, nil, []int{0, 1, 63, 64, 1 << 20})
}

// FuzzFilter checks Filter against slices.BinarySearch on strictly
// ascending lists of up to 2^14 colors spanning up to 2^20, offset up to
// 2^30, so both sides run: Pos for every color of the list, its
// neighbors, the range's ends, random colors and colors aliased onto the
// hashed bitmap, and AppendCommon at every limit edge. One Filter first
// describes a wider list, so Load must clear what that one left.
func FuzzFilter(f *testing.F) {
	f.Add(int64(1), uint16(86), uint32(97), uint32(0))           // dense: exact
	f.Add(int64(2), uint16(4700), uint32(1<<15), uint32(0))      // the oldc-d128 lists: exact
	f.Add(int64(3), uint16(55), uint32(1<<20), uint32(0))        // a Phase II C_v over 2^20: hashed
	f.Add(int64(4), uint16(600), uint32(1<<20), uint32(1<<30-1)) // near 2^30: hashed
	f.Add(int64(5), uint16(16384), uint32(1<<20-1), uint32(3))   // 2^14 colors over 2^20: exact
	f.Add(int64(6), uint16(0), uint32(5), uint32(0))             // empty
	f.Add(int64(7), uint16(1), uint32(1), uint32(1<<20))         // one color
	f.Fuzz(func(t *testing.T, seed int64, n uint16, span, offset uint32) {
		rng := rand.New(rand.NewSource(seed))
		sp := 1 + int(span%(1<<20))
		list := randSet(rng, min(int(n)%(1<<14+1), sp), sp)
		for i := range list {
			list[i] += int(offset % (1 << 30))
		}
		var fl Filter
		fl.Load(randSet(rng, 1<<10, 1<<12)) // a wider list first
		fl.Load(list)
		if len(list) > 0 {
			if want := list[len(list)-1]-list[0] < 64*filterWords(len(list)); fl.exact != want {
				t.Fatalf("%d colors over [%d, %d]: exact %v, want %v", len(list), list[0], list[len(list)-1], fl.exact, want)
			}
		}
		checkFilter(t, &fl, list, probesFor(rng, list))
	})
}

// probesFor returns colors worth probing for list: each color, its
// neighbors, the range's ends, random colors around the range and colors
// aliased onto a hashed bitmap of the list, ascending and distinct.
func probesFor(rng *rand.Rand, list []int) []int {
	if len(list) == 0 {
		return []int{0, 1, 1 << 20}
	}
	size := 64 * filterWords(len(list))
	lo, hi := list[0], list[len(list)-1]
	out := []int{lo - 1, lo, hi, hi + 1, hi + 64, hi + size}
	for _, x := range list {
		switch rng.Intn(4) {
		case 0:
			out = append(out, x)
		case 1:
			out = append(out, x-1, x+1)
		case 2:
			out = append(out, x+(1+rng.Intn(3))*size)
		default:
			out = append(out, lo-64+rng.Intn(hi-lo+129))
		}
	}
	out = slices.DeleteFunc(out, func(x int) bool { return x < 0 })
	sort.Ints(out)
	return slices.Compact(out)
}

// checkFilter compares Pos with a binary search for every probe, and
// AppendCommon with a two-pointer merge of list and probes cut at limits
// 0, 1, the common count, one above it and one below it.
func checkFilter(t *testing.T, f *Filter, list, probes []int) {
	t.Helper()
	var common []int32
	for _, x := range probes {
		j, ok := f.Pos(x)
		wj, wok := slices.BinarySearch(list, x)
		if ok != wok || (ok && j != wj) {
			t.Fatalf("Pos(%d) = (%d, %v), want (%d, %v); list %v", x, j, ok, wj, wok, list)
		}
		if wok {
			common = append(common, int32(wj))
		}
	}
	prefix := []int32{-1, -2}
	for _, limit := range []int{0, 1, len(common) - 1, len(common), len(common) + 1} {
		want := append(slices.Clone(prefix), common[:max(0, min(limit, len(common)))]...)
		if got := f.AppendCommon(slices.Clone(prefix), probes, limit); !slices.Equal(got, want) {
			t.Fatalf("AppendCommon(limit %d) = %v, want %v; list %v, probes %v", limit, got, want, list, probes)
		}
	}
}
