package linial

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The digests below pin the observable output of the two defective entry
// points at every worker count: colors or classes, the certifying
// orientation's out-lists, Stats and JSONL trace bytes. Both runs end in a
// defective step (budget > 0), the step whose argmin counts every point:
//
//   - Arbdefective on a G(n,p) graph with 11 classes runs GF(7) degree 4,
//     the step that opens stage 1 of the Theorem 1.4 pipeline on
//     G(16384, 64/16383);
//   - Defective with maus21's budget d = ⌈Δ/k⌉ − 1 at k = 2 runs GF(7)
//     degree 3.
//
// The outputs are a pure function of the inputs, so a change that only
// makes the local computation cheaper must reproduce every digest.
const (
	digestArbdefectiveGNP = "28ac5a901cea5a94"
	digestDefectiveMaus21 = "c634db6f373268cd"
)

// digestWorkers are the shard counts every digest is checked at: the rows
// a sender's Outbox stores in collect are read by other shards' Inbox
// callbacks in deliver.
var digestWorkers = []int{1, 2, 4}

// digest hashes the %#v rendering of each part (byte slices raw).
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		if b, ok := p.([]byte); ok {
			h.Write(b)
		} else {
			fmt.Fprintf(h, "%#v", p)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tracedEngine returns an engine over g with the given worker count and a
// JSONL tracer writing into buf.
func tracedEngine(g *graph.Graph, workers int, buf *bytes.Buffer) (*sim.Engine, *obs.JSONL) {
	tr := obs.NewJSONL(buf)
	return sim.NewEngineWith(g, sim.Options{Workers: workers, Tracer: tr}), tr
}

// closeTrace appends the run totals and flushes the tracer.
func closeTrace(t *testing.T, tr *obs.JSONL, stats sim.Stats) {
	t.Helper()
	tr.End(stats.TraceTotals())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// lastStep returns the schedule's last step and its budget.
func lastStep(s Schedule) (stepParams, int) {
	i := len(s.Steps) - 1
	return s.Steps[i], s.Budgets[i]
}

func TestDigestArbdefective(t *testing.T) {
	g := graph.GNP(2560, 32.0/2559, 3)
	n, delta := g.N(), g.MaxDegree()
	for _, w := range digestWorkers {
		var buf bytes.Buffer
		eng, tr := tracedEngine(g, w, &buf)
		res, stats, err := Arbdefective(eng, g, IDs(n), n, 11)
		if err != nil {
			t.Fatal(err)
		}
		closeTrace(t, tr, stats)
		// The realized bound is ⌈3Δ/p⌉ plus the defective budget.
		d2 := res.Arbdefect - (3*delta+res.NumClasses-1)/res.NumClasses
		if sp, b := lastStep(DefectiveSchedule(n, delta, d2)); sp != (stepParams{q: 7, deg: 4}) || b == 0 {
			t.Fatalf("Δ=%d: last step %+v with budget %d, want the defective (7,4) step", delta, sp, b)
		}
		out := make([][]int32, n)
		for v := range out {
			out[v] = res.Orient.Out(v)
		}
		got := digest(res.Classes, res.NumClasses, res.Arbdefect, out, stats, buf.Bytes())
		if got != digestArbdefectiveGNP {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestArbdefectiveGNP)
		}
	}
}

func TestDigestDefective(t *testing.T) {
	g := graph.GNP(512, 16.0/511, 5)
	n, delta := g.N(), g.MaxDegree()
	d := (delta+1)/2 - 1 // maus21.DefectFor(Δ, 2)
	if sp, b := lastStep(DefectiveSchedule(n, delta, d)); sp != (stepParams{q: 7, deg: 3}) || b == 0 {
		t.Fatalf("Δ=%d d=%d: last step %+v with budget %d, want the defective (7,3) step", delta, d, sp, b)
	}
	o := graph.OrientSymmetric(g)
	for _, w := range digestWorkers {
		var buf bytes.Buffer
		eng, tr := tracedEngine(g, w, &buf)
		colors, q, stats, err := Defective(eng, o, IDs(n), n, d)
		if err != nil {
			t.Fatal(err)
		}
		closeTrace(t, tr, stats)
		if got := digest(colors, q, stats, buf.Bytes()); got != digestDefectiveMaus21 {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestDefectiveMaus21)
		}
	}
}

// The reductions that finish a node early and leave its later inboxes
// unread are pinned the same way, colors, Stats and JSONL trace bytes at
// every worker count, recorded at a726ae4:
//
//   - ReduceToP's row shift, whose settled nodes keep announcing their
//     final row;
//   - FoldColors, where only the nodes of the class being folded read
//     their inbox.
//
// Each starts from Proper's coloring, computed on an untraced engine.
const (
	digestReduceToP  = "8307d7e7d05f4a6f"
	digestFoldColors = "a640f9c350c55bd8"
)

// properStart returns Proper's coloring of g from unique ids and its
// color count.
func properStart(t *testing.T, g *graph.Graph) ([]int, int) {
	t.Helper()
	colors, m, _, err := Proper(sim.NewEngine(g), graph.OrientSymmetric(g), IDs(g.N()), g.N())
	if err != nil {
		t.Fatal(err)
	}
	return colors, m
}

func TestDigestReduceToP(t *testing.T) {
	g := graph.GNP(512, 16.0/511, 7)
	init, m := properStart(t, g)
	for _, w := range digestWorkers {
		var buf bytes.Buffer
		eng, tr := tracedEngine(g, w, &buf)
		colors, p, stats, err := ReduceToP(eng, g, init, m)
		if err != nil {
			t.Fatal(err)
		}
		closeTrace(t, tr, stats)
		if got := digest(colors, p, stats, buf.Bytes()); got != digestReduceToP {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestReduceToP)
		}
	}
}

func TestDigestFoldColors(t *testing.T) {
	g := graph.GNP(256, 8.0/255, 5)
	init, m := properStart(t, g)
	for _, w := range digestWorkers {
		var buf bytes.Buffer
		eng, tr := tracedEngine(g, w, &buf)
		colors, stats, err := FoldColors(eng, g, init, m, g.MaxDegree()+1)
		if err != nil {
			t.Fatal(err)
		}
		closeTrace(t, tr, stats)
		if got := digest(colors, stats, buf.Bytes()); got != digestFoldColors {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestFoldColors)
		}
	}
}
