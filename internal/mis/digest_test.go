package mis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The digests pin both MIS routes on G(1024, 16/1023): the set, Stats and
// JSONL trace bytes at every worker count, recorded at a726ae4. Decided
// nodes of both routes leave their later inboxes unread. FromColoring
// starts from a DegreeLuby coloring computed on an untraced engine.
const (
	digestLuby         = "c23c0a3ad69bcf0d"
	digestFromColoring = "94401759c15fc86f"
)

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

// tracedRun runs solve on an engine over g with the given worker count and
// a JSONL tracer, and returns the digest of its set, Stats and trace bytes.
func tracedRun(t *testing.T, g *graph.Graph, workers int, solve func(*sim.Engine) ([]bool, sim.Stats, error)) string {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	set, stats, err := solve(sim.NewEngineWith(g, sim.Options{Workers: workers, Tracer: tr}))
	if err != nil {
		t.Fatal(err)
	}
	tr.End(stats.TraceTotals())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return digest(set, stats, buf.Bytes())
}

func TestDigestLuby(t *testing.T) {
	g := graph.GNP(1024, 16.0/1023, 4)
	for _, w := range digestWorkers {
		got := tracedRun(t, g, w, func(eng *sim.Engine) ([]bool, sim.Stats, error) { return Luby(eng, g, 23) })
		if got != digestLuby {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestLuby)
		}
	}
}

func TestDigestFromColoring(t *testing.T) {
	g := graph.GNP(1024, 16.0/1023, 4)
	colors, _, err := baseline.DegreeLuby(sim.NewEngine(g), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range digestWorkers {
		got := tracedRun(t, g, w, func(eng *sim.Engine) ([]bool, sim.Stats, error) {
			return FromColoring(eng, g, colors, g.MaxDegree()+1)
		})
		if got != digestFromColoring {
			t.Errorf("workers=%d: digest %s, want %s", w, got, digestFromColoring)
		}
	}
}
