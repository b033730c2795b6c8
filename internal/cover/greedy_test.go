package cover

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file implements the *literal* zero-round P2 construction of Lemma
// 3.5: enumerate S(L) = ((L choose k) choose k′) for every node type and
// greedily assign each type a family that is Ψ_g(τ′,τ)-conflict-free with
// all previously assigned ones. The enumeration is exponential (the paper
// concedes super-polynomial internal computation, Appendix C), so this is
// only feasible at toy parameters — it exists to certify that the
// type-seeded sampler used by the algorithms (Family) replaces a
// construction that genuinely exists, and the tests compare the two.

// Combinations enumerates all k-subsets of items in lexicographic order.
func Combinations(items []int, k int) [][]int {
	if k < 0 || k > len(items) {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		pick := make([]int, k)
		for i, j := range idx {
			pick[i] = items[j]
		}
		out = append(out, pick)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == len(items)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// GreedyParams are the toy-scale parameters of the exact construction.
type GreedyParams struct {
	SetSize  int // k: size of each candidate set
	FamSize  int // k′: sets per family
	Tau      int // τ
	TauPrime int // τ′
	Gap      int // g
}

// GreedyFamilies runs the Lemma 3.5 greedy over the given (distinct) type
// lists: the i-th output family is drawn from S(lists[i]) and conflicts
// with no earlier family under Ψ_g(τ′,τ) in either direction. It returns
// an error when some type's S(L) is exhausted — which, per Lemma 3.1,
// cannot happen when the parameters satisfy the counting premise.
func GreedyFamilies(lists [][]int, p GreedyParams) ([][][]int, error) {
	chosen := make([][][]int, 0, len(lists))
	for ti, list := range lists {
		sorted := append([]int(nil), list...)
		sort.Ints(sorted)
		sets := Combinations(sorted, p.SetSize)
		if len(sets) < p.FamSize {
			return nil, fmt.Errorf("cover: type %d has only %d candidate sets, need %d", ti, len(sets), p.FamSize)
		}
		famIdx := make([]int, p.FamSize)
		for i := range famIdx {
			famIdx[i] = i
		}
		found := false
		for {
			fam := make([][]int, p.FamSize)
			for i, j := range famIdx {
				fam[i] = sets[j]
			}
			ok := true
			for _, prev := range chosen {
				if Psi(fam, prev, p.TauPrime, p.Tau, p.Gap) || Psi(prev, fam, p.TauPrime, p.Tau, p.Gap) {
					ok = false
					break
				}
			}
			if ok {
				chosen = append(chosen, fam)
				found = true
				break
			}
			// Advance the k′-subset of set indices.
			i := p.FamSize - 1
			for i >= 0 && famIdx[i] == len(sets)-p.FamSize+i {
				i--
			}
			if i < 0 {
				break
			}
			famIdx[i]++
			for j := i + 1; j < p.FamSize; j++ {
				famIdx[j] = famIdx[j-1] + 1
			}
		}
		if !found {
			return nil, fmt.Errorf("cover: greedy exhausted S(L) at type %d (parameters below the Lemma 3.1 premise)", ti)
		}
	}
	return chosen, nil
}

func TestCombinations(t *testing.T) {
	c := Combinations([]int{1, 2, 3, 4}, 2)
	if len(c) != 6 {
		t.Fatalf("C(4,2)=%d", len(c))
	}
	if c[0][0] != 1 || c[0][1] != 2 || c[5][0] != 3 || c[5][1] != 4 {
		t.Fatalf("lexicographic order wrong: %v", c)
	}
	if Combinations([]int{1, 2}, 3) != nil {
		t.Fatal("k > n must give nil")
	}
	if got := Combinations([]int{7, 8, 9}, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Fatal("k=0 must give the empty set")
	}
}

func TestCombinationsCount(t *testing.T) {
	// |Combinations(n,k)| = C(n,k).
	items := []int{0, 1, 2, 3, 4, 5, 6}
	want := []int{1, 7, 21, 35, 35, 21, 7, 1}
	for k := 0; k <= 7; k++ {
		if got := len(Combinations(items, k)); got != want[k] {
			t.Fatalf("C(7,%d)=%d want %d", k, got, want[k])
		}
	}
}

// The literal Lemma 3.5 greedy at toy scale: families over a large color
// space with small sets must come out pairwise Ψ-conflict-free.
func TestGreedyFamiliesConflictFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var lists [][]int
	for i := 0; i < 8; i++ {
		lists = append(lists, randSet(rng, 6, 1024))
	}
	p := GreedyParams{SetSize: 2, FamSize: 2, Tau: 2, TauPrime: 1, Gap: 0}
	fams, err := GreedyFamilies(lists, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != len(lists) {
		t.Fatalf("got %d families", len(fams))
	}
	for i := range fams {
		for j := range fams {
			if i == j {
				continue
			}
			if Psi(fams[i], fams[j], p.TauPrime, p.Tau, p.Gap) {
				t.Fatalf("families %d and %d conflict", i, j)
			}
		}
	}
}

// With τ′=1 and heavily overlapping lists the greedy must run out — the
// Lemma 3.1 premise (large ℓ) is genuinely needed.
func TestGreedyFamiliesExhaustion(t *testing.T) {
	shared := []int{1, 2, 3}
	lists := [][]int{shared, shared, shared, shared}
	p := GreedyParams{SetSize: 2, FamSize: 2, Tau: 1, TauPrime: 1, Gap: 0}
	if _, err := GreedyFamilies(lists, p); err == nil {
		t.Fatal("expected exhaustion on identical tiny lists")
	}
}

// The type-seeded sampler substitutes for the exact construction: at the
// same toy parameters, sampled families of distinct types are also
// pairwise conflict-free (the statistical analogue the algorithms rely
// on).
func TestSamplerMatchesGreedyGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var lists [][]int
	for i := 0; i < 8; i++ {
		lists = append(lists, randSet(rng, 6, 1024))
	}
	var sampled [][][]int
	for i, l := range lists {
		sampled = append(sampled, Family(Type{InitColor: i, List: l, SetSize: 2, NumSets: 2}))
	}
	for i := range sampled {
		for j := range sampled {
			if i != j && Psi(sampled[i], sampled[j], 1, 2, 0) {
				t.Fatalf("sampled families %d and %d conflict at τ=2", i, j)
			}
		}
	}
}

func TestGreedyFamiliesTooFewSets(t *testing.T) {
	lists := [][]int{{1, 2}}
	p := GreedyParams{SetSize: 2, FamSize: 3, Tau: 1, TauPrime: 1}
	if _, err := GreedyFamilies(lists, p); err == nil {
		t.Fatal("expected error when C(ℓ,k) < k′")
	}
}
