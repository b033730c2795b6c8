//go:build !race

// The race detector makes sync.Pool drop items at random, so the pooled
// index of the induced views would show up as allocations; these guards
// run without it.

package graph

import (
	"fmt"
	"strings"
	"testing"
)

// TestInducedViewAllocs pins that Builder.Build, Orient, InducedSubgraph
// and InducedOriented allocate a constant number of times, whatever the
// graph's size: their lists are carved from flat arrays, not appended and
// sorted one vertex at a time.
func TestInducedViewAllocs(t *testing.T) {
	for _, n := range []int{64, 2048} {
		g := GNP(n, 16.0/float64(n-1), 3)
		b := NewBuilder(n)
		g.ForEachEdge(func(u, v int) { b.AddEdge(u, v) })
		o := OrientByID(g)
		sym := OrientSymmetric(g)
		var half []int
		for v := 0; v < n; v += 2 {
			half = append(half, v)
		}
		for _, c := range []struct {
			name   string
			budget float64
			run    func()
		}{
			// The result, its header table, the flat array, the offsets
			// and the two passes' closures.
			{"Builder.Build", 6, func() { b.Build() }},
			// The result, its two list-header tables, the flat array and
			// two fill cursors.
			{"Orient", 6, func() { Orient(g, func(u, v int) bool { return u > v }) }},
			// The result, the id map, the header table and the flat array.
			{"InducedSubgraph", 4, func() { g.InducedSubgraph(half) }},
			// Two results, the id map and three header tables and flat
			// arrays.
			{"InducedOriented", 9, func() {
				if _, _, err := InducedOriented(sym, half); err != nil {
					t.Fatal(err)
				}
			}},
			{"InducedOriented/by-id", 9, func() {
				if _, _, err := InducedOriented(o, half); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			c.run() // warm the pooled index
			if allocs := testing.AllocsPerRun(20, c.run); allocs > c.budget {
				t.Errorf("%s on n=%d made %.1f allocations per call, budget %.0f", c.name, n, allocs, c.budget)
			}
		}
	}
}

// TestLoadEdgeListAllocs pins that LoadEdgeList allocates as often for
// about 10,000 lines as for about 100, and nothing per canonical line.
func TestLoadEdgeListAllocs(t *testing.T) {
	// The buffer and its storage, the edge list, the comment line's
	// string, the Builder and the six of Builder.Build above.
	const budget = 11
	for _, g := range []*Graph{GNP(200, 1.0/199, 5), GNP(2000, 10.0/1999, 5)} {
		var b strings.Builder
		b.WriteString("# G(n, p)\n")
		g.ForEachEdge(func(u, v int) { fmt.Fprintf(&b, "%d %d\n", u, v) })
		text := b.String()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := LoadEdgeList(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("LoadEdgeList of %d lines made %.1f allocations per call, budget %d", g.M()+1, allocs, budget)
		}
	}
}
