package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// digestBuild pins n, m and every neighbor list of the two-pass
// generators, a Builder graph with a repeated edge and an isolated vertex,
// and a loaded edge list. It was recorded before Builder, GNP and
// PreferentialAttachment shared one build.
const digestBuild = "b971c238f5e1b420"

func TestBuildDigest(t *testing.T) {
	loaded, err := LoadEdgeList(strings.NewReader("# c\n3 1\n0 1\n\n4 2\n1 2\n% c\n0 4\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, g := range []*Graph{
		GNP(200, 0.03, 7), GNP(60, 0.5, 11), GNP(20, 1, 3), GNP(20, 0, 3),
		PreferentialAttachment(150, 3, 42), PreferentialAttachment(64, 1, 5),
		// {0,1} twice, once each way, with other edges between; 5 isolated.
		NewBuilder(6).AddEdge(0, 1).AddEdge(2, 1).AddEdge(4, 3).AddEdge(1, 0).AddEdge(3, 0).Build(),
		loaded,
	} {
		fmt.Fprint(h, g.N(), g.M())
		for v := 0; v < g.N(); v++ {
			fmt.Fprint(h, g.Neighbors(v))
		}
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != digestBuild {
		t.Errorf("digest %s, want %s", got, digestBuild)
	}
}

// FuzzBuild checks Builder on arbitrary edge sequences: the first byte
// picks n in [0, 16], every following pair one edge with endpoints in
// [-1, n+1]. Sequences with a self loop or an endpoint out of range, on
// which AddEdge panics, are skipped; repeats stay. The graph must pass
// Validate, equal a map-based reference, and give exactly the isolated
// vertices a nil list. Its neighbor lists are windows of one flat array,
// so it also applies an edge insertion and a removal through the Oriented
// mutation API and requires every other vertex's neighbor list to be
// untouched.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 2, 2, 3, 2, 1}) // duplicate {0,1}
	f.Add([]byte{4, 1, 2, 3, 3})       // self loop
	f.Add([]byte{4, 1, 6})             // out of range
	f.Add([]byte{4, 0, 2})             // negative
	f.Add([]byte{8, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 1, 3, 5})
	f.Add([]byte{16, 1, 9, 2, 10, 3, 11, 1, 17, 1, 5, 9, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		n := int(data[0]) % 17
		var edges [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			u := int(data[i])%(n+3) - 1
			v := int(data[i+1])%(n+3) - 1
			if u == v || u < 0 || u >= n || v < 0 || v >= n {
				return
			}
			edges = append(edges, [2]int{u, v})
		}
		b := NewBuilder(n)
		seen := map[[2]int]bool{}
		ref := make([][]int32, n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
			if k := [2]int{min(e[0], e[1]), max(e[0], e[1])}; !seen[k] {
				seen[k] = true
				ref[e[0]] = append(ref[e[0]], int32(e[1]))
				ref[e[1]] = append(ref[e[1]], int32(e[0]))
			}
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.N() != n || g.M() != len(seen) {
			t.Fatalf("shape n=%d m=%d, want n=%d m=%d", g.N(), g.M(), n, len(seen))
		}
		for v, want := range ref {
			slices.Sort(want)
			if got := g.Neighbors(v); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("neighbors of %d = %#v, want %v", v, got, want)
			}
		}
		if g.N() < 2 {
			return
		}
		// Mutate through the Oriented API: add a missing edge (if any) and
		// remove a present one; nothing else may move.
		o := OrientByID(g)
		before := make([][]int32, g.N())
		for v := range before {
			before[v] = slices.Clone(g.Neighbors(v))
		}
		touched := map[int]bool{}
		for u := 0; u < g.N() && len(touched) == 0; u++ {
			for v := u + 1; v < g.N(); v++ {
				if !g.HasEdge(u, v) {
					if err := o.AddEdge(v, u); err != nil {
						t.Fatal(err)
					}
					touched[u], touched[v] = true, true
					break
				}
			}
		}
		if len(edges) > 0 {
			e := edges[0]
			if err := o.RemoveEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			touched[e[0]], touched[e[1]] = true, true
		}
		for v := range before {
			if !touched[v] && !slices.Equal(g.Neighbors(v), before[v]) {
				t.Fatalf("mutation changed neighbors of untouched vertex %d: %v, was %v", v, g.Neighbors(v), before[v])
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("after mutation: %v", err)
		}
	})
}
