package congest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/arb"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// The digests below pin the complete observable output of the Theorem 1.4
// pipeline and of the Theorem 1.3 driver's other two paths: colorings,
// Stats, phase breakdowns, stage and batch counts, JSONL trace bytes and
// orientation out-lists. The outputs are a pure function of the inputs, so
// a change that only makes local computation cheaper must reproduce every
// digest exactly.
//
// In the G(n,p) run, stage 3's bootstrap opens with a proper Linial step
// over GF(47) (budget 0, degree 2), so the early-exit argmin of linial's
// reduction is pinned on a field large enough for the exit to skip most
// points.
const (
	digestDeltaGNP          = "5cd979a8a5ceb567"
	digestDeltaPowerLaw     = "d499ee75b41052a8"
	digestListDefects       = "f318899374b25d88"
	digestViaDefective      = "464722fd6a9f7751"
	digestFallbackDriver    = "9aae377d434d46e7"
	digestDriverOrientation = "b4211bdbcc176e0a"
)

// digest hashes the %#v rendering of each part (byte slices raw), so any
// change to a Stats field, a coloring entry or a trace byte changes it.
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

func checkDigest(t *testing.T, tag, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: digest %s, want %s", tag, got, want)
	}
}

// pipelineDigest runs DegreePlusOneList with a JSONL tracer and hashes
// every part of its Result together with the trace bytes.
func pipelineDigest(t *testing.T, g *graph.Graph, in *coloring.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	res, err := DegreePlusOneList(g, in, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.End(res.Stats.TraceTotals())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return digest(res.Phi, res.Stats, res.Phases, res.InitM, res.Stages, res.Batches, buf.Bytes())
}

// outLists copies the orientation's out-lists for hashing.
func outLists(o *graph.Oriented) [][]int32 {
	out := make([][]int32, o.N())
	for v := range out {
		out[v] = o.Out(v)
	}
	return out
}

// idBootstrap is the proper initial coloring the Theorem 1.3 driver
// expects: Linial's reduction from unique ids.
func idBootstrap(t *testing.T, g *graph.Graph) ([]int, int) {
	t.Helper()
	init, m, _, err := linial.Proper(sim.NewEngine(g), graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
	if err != nil {
		t.Fatal(err)
	}
	return init, m
}

func TestGoldenDeltaPlusOneGNP(t *testing.T) {
	g := graph.GNP(4096, 40.0/4095, 3)
	checkDigest(t, "delta1 gnp", pipelineDigest(t, g, coloring.Standard(g)), digestDeltaGNP)
}

func TestGoldenDeltaPlusOnePowerLaw(t *testing.T) {
	g := graph.PreferentialAttachment(1024, 6, 5)
	checkDigest(t, "delta1 power-law", pipelineDigest(t, g, coloring.Standard(g)), digestDeltaPowerLaw)
}

func TestGoldenDegreePlusOneListDefects(t *testing.T) {
	// Σ(d+1) = 6·2 = 12 > deg = 10 at every node, with every defect 1.
	g := graph.RandomRegular(256, 10, 7)
	in := coloring.UniformDefective(g, 96, 6, 1, 9)
	checkDigest(t, "list defects", pipelineDigest(t, g, in), digestListDefects)
}

func TestGoldenSolveViaDefective(t *testing.T) {
	g := graph.GNP(512, 16.0/511, 11)
	init, m := idBootstrap(t, g)
	in := coloring.DegreePlusOne(g, 2*g.MaxDegree()+2, 13)
	res, err := arb.SolveViaDefective(g, in, init, m, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "via defective", digest(res.Phi, outLists(res.Orient), res.Stats, res.Stages, res.Batches), digestViaDefective)
}

func TestGoldenFallbackDriver(t *testing.T) {
	g := graph.GNP(512, 16.0/511, 15)
	init, m := idBootstrap(t, g)
	in := coloring.DegreePlusOne(g, 2*g.MaxDegree()+2, 17)
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	res, err := arb.SolveListArbdefective(g, in, init, m, oldc.Solve, arb.Config{MaxStages: 1, Engine: sim.Options{Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"arb/fallback"`)) {
		t.Fatal("the run never reached the fallback schedule")
	}
	checkDigest(t, "fallback driver", digest(res.Phi, outLists(res.Orient), res.Stats, res.Stages, res.Batches, buf.Bytes()), digestFallbackDriver)
}

// TestGoldenDriverOrientation pins the orientation the Theorem 1.3
// driver's main path certifies its arbdefects with: later-colored →
// earlier, same-batch edges along the batch orientation, the rest by id.
// The Theorem 1.4 goldens hash congest.Result, which drops
// arb.Result.Orient. A batch orientation is the stage bootstrap's, which
// agrees with id order unless a row-shift node settled late. On this
// graph, with class factor 4, 8 of the 1,086 same-batch edges disagree, so
// the digest also sees the driver's record of batch arc directions.
func TestGoldenDriverOrientation(t *testing.T) {
	g := graph.GNP(2048, 96.0/2047, 3)
	init, m := idBootstrap(t, g)
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	res, err := arb.SolveListArbdefective(g, coloring.Standard(g), init, m, oldc.Solve, arb.Config{ClassFactor: 4, Engine: sim.Options{Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"arb/fallback"`)) {
		t.Fatal("the run reached the fallback schedule")
	}
	checkDigest(t, "driver orientation", digest(res.Phi, outLists(res.Orient), res.Stats, res.Stages, res.Batches), digestDriverOrientation)
}
