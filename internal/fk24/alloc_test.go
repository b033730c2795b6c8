//go:build !race

package fk24

import (
	"testing"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestPickColorAllocs: once the pooled scratch is warm, the commit pick
// (the filter load of C_v and the probes of every same-bucket set)
// allocates nothing. sync.Pool drops items under the race detector, so
// this guard is built without it.
func TestPickColorAllocs(t *testing.T) {
	o := graph.OrientByID(graph.RandomRegular(128, 24, 5))
	in := prepareInput(o, 1<<12, 6.0, 3, 7)
	pr := cover.Practical()
	tau := pr.Tau(1, in.SpaceSize, in.M)
	a, err := newAlg(spec{o: o, spaceSize: in.SpaceSize, m: in.M, buckets: 4, lists: in.Lists, init: in.InitColors, tau: tau, kprime: pr.KPrime(1, tau), pr: pr})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(o.Graph())
	a.sink = eng
	if _, err := eng.Run(a, MaxRounds(4)); err != nil {
		t.Fatal(err)
	}
	best := 0
	for v := range a.sbSet {
		if len(a.sbSet[v]) > len(a.sbSet[best]) {
			best = v
		}
	}
	if len(a.sbSet[best]) == 0 {
		t.Fatal("no node has a same-bucket neighbor")
	}
	a.pickColor(best)
	if allocs := testing.AllocsPerRun(100, func() { a.pickColor(best) }); allocs != 0 {
		t.Fatalf("warm pick of node %d (%d same-bucket sets) allocated %.1f times", best, len(a.sbSet[best]), allocs)
	}
}
