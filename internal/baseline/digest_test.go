package baseline

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

// digestExactArbdefective pins ExactArbdefective's whole pipeline (Linial,
// the row shift, then one schedule class per round) on G(512, 16/511) at
// q = 5, d = ⌊Δ/5⌋: classes, the orientation's out-lists, Stats and JSONL
// trace bytes at every worker count, recorded at a726ae4.
const digestExactArbdefective = "44efe62f3321ecde"

// digestLuby pins Luby on G(512, 16/511) with draw seed 3: the coloring
// and Stats at every worker count, recorded at d220d0e.
const digestLuby = "39c823180fb277f3"

// digestWorkers are the shard counts every digest is checked at.
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

func TestDigestExactArbdefective(t *testing.T) {
	g := graph.GNP(512, 16.0/511, 9)
	q := 5
	d := g.MaxDegree() / q
	for _, w := range digestWorkers {
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		eng := sim.NewEngineWith(g, sim.Options{Workers: w, Tracer: tr})
		phi, orient, stats, err := ExactArbdefective(eng, g, q, d)
		if err != nil {
			t.Fatal(err)
		}
		tr.End(stats.TraceTotals())
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		out := make([][]int32, g.N())
		for v := range out {
			out[v] = orient.Out(v)
		}
		if got := digest(phi, out, stats, buf.Bytes()); got != digestExactArbdefective {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestExactArbdefective)
		}
	}
}

func TestDigestLuby(t *testing.T) {
	g := graph.GNP(512, 16.0/511, 11)
	for _, w := range digestWorkers {
		phi, stats, err := Luby(sim.NewEngineWith(g, sim.Options{Workers: w}), g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(phi, stats); got != digestLuby {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestLuby)
		}
	}
}
