package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// The self-checks run every workload at a reduced size, traced, so one run
// holds untraced and traced ops of the same instance.

var (
	smallOnce sync.Once
	small     map[string]*result
	smallErr  error
	dataRoot  string
)

func TestMain(m *testing.M) {
	var err error
	if dataRoot, err = os.MkdirTemp("", "ldcbench-"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dataRoot)
	os.Exit(code)
}

// smallRuns runs each workload once at a reduced size, shared by the tests.
func smallRuns(t *testing.T) map[string]*result {
	t.Helper()
	smallOnce.Do(func() {
		small = map[string]*result{}
		for name, run := range map[string]func(c *config) (*result, error){
			"oldc-d128":   func(c *config) (*result, error) { return runSolve(oldcD128(256, 32), c) },
			"delta1-gnp":  func(c *config) (*result, error) { return runSolve(delta1GNP(2048, 2, 16), c) },
			"route-luby":  func(c *config) (*result, error) { return runSolve(routeLuby(4096, 16), c) },
			"serve-churn": func(c *config) (*result, error) { return runServe(serveCase{"serve-churn", 256, 16, 100}, c) },
		} {
			c := &config{seed: 7, budget: 200 * time.Millisecond, trace: true, workers: 2, dataRoot: dataRoot}
			res, err := run(c)
			if err != nil {
				smallErr = fmt.Errorf("%s: %w", name, err)
				return
			}
			res.rec.finish()
			small[name] = res
		}
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return small
}

// TestTracedRunChangesNothing: traced and untraced ops of one instance (and
// every serve episode) end in the same coloring after the same rounds and
// bits, so neither the PrepareSolve seam nor the wrapper alters a solve.
func TestTracedRunChangesNothing(t *testing.T) {
	for name, res := range smallRuns(t) {
		if len(res.ops) == 0 || len(res.traced) == 0 {
			t.Errorf("%s: %d untraced and %d traced ops", name, len(res.ops), len(res.traced))
		}
		if attempted, failed := res.attempts(); failed != 0 {
			t.Errorf("%s: %d of %d ops failed", name, failed, attempted)
		}
		if len(res.problems) > 0 {
			t.Errorf("%s: %v", name, res.problems)
		}
		if res.first.Rounds == 0 || res.first.TotalBits == 0 || res.colors == 0 {
			t.Errorf("%s: first op counts %+v, %d colors", name, res.first, res.colors)
		}
	}
}

// TestSplitsAddUp: per wrapped round, collect + route + deliver does not
// exceed the round; per batch, recolor + persist is the batch latency with
// both parts non-negative.
func TestSplitsAddUp(t *testing.T) {
	for name, res := range smallRuns(t) {
		rounds := 0
		for i, s := range res.rec.spans {
			if s.dur() < 0 {
				t.Errorf("%s: span %d (%s) has negative duration", name, i, s.Name)
			}
			if s.Name != "round" || s.Approx {
				continue
			}
			var parts int64
			for _, c := range res.rec.spans[i+1:] {
				if c.Parent != i {
					break
				}
				parts += c.dur()
			}
			if parts > s.dur() {
				t.Errorf("%s: round span %d: collect+route+deliver %dns > round %dns", name, i, parts, s.dur())
			}
			rounds++
		}
		if rounds == 0 {
			t.Errorf("%s: no timed rounds", name)
		}
		for i, op := range res.traced {
			if name != "serve-churn" {
				break
			}
			persist := op.seconds*1000 - op.batch.recolorMs
			if op.batch.recolorMs <= 0 || persist < 0 || math.Abs(op.batch.recolorMs+persist-op.seconds*1000) > 1e-9 {
				t.Errorf("batch %d: recolor %.4fms + persist %.4fms vs latency %.4fms", i, op.batch.recolorMs, persist, op.seconds*1000)
			}
		}
	}
}

// TestPrintedMetricsAreDeclared: each workload prints exactly the metrics
// BENCHMARK.json declares, with the declared units, and never a zero
// end-to-end metric.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	runs := smallRuns(t)
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok || runs[w.Name] == nil {
			t.Errorf("declared workload %s is not run", w.Name)
		}
	}
	if len(workloads) != len(decl.Workloads) {
		t.Errorf("%d workloads run, %d declared", len(workloads), len(decl.Workloads))
	}
	for name, res := range runs {
		e2e := res.endToEnd()
		for _, m := range e2e {
			if m.value == 0 || math.IsNaN(m.value) {
				t.Errorf("%s: end-to-end %s = %v", name, m.name, m.value)
			}
		}
		sameMetrics(t, name+" end-to-end", e2e, decl.EndToEnd)
		sameMetrics(t, name+" per-layer", res.perLayer(), decl.PerLayer)
	}
}

func sameMetrics(t *testing.T, what string, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		units[m.name] = m.unit
	}
	if len(units) != len(got) || len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(got), len(want))
	}
	for _, w := range want {
		if u, ok := units[w.Name]; !ok || u != w.Unit {
			t.Errorf("%s: declared %s [%s], printed unit %q", what, w.Name, w.Unit, u)
		}
	}
}

// TestGenerators: the inputs are simple graphs of the stated shape, and the
// same seed gives the same edge-list text.
func TestGenerators(t *testing.T) {
	g, err := graph.LoadEdgeList(bytes.NewReader(edgeListText(regularEdges(256, 32, 3))))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 32 {
			t.Fatalf("node %d has degree %d, want 32", v, g.Degree(v))
		}
	}
	a, b := edgeListText(gnpEdges(4096, 16, 3)), edgeListText(gnpEdges(4096, 16, 3))
	if !bytes.Equal(a, b) || bytes.Equal(a, edgeListText(gnpEdges(4096, 16, 4))) {
		t.Fatal("gnpEdges is not a function of its seed")
	}
	g, err = graph.LoadEdgeList(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if avg := 2 * float64(g.M()) / float64(g.N()); math.Abs(avg-16) > 1 {
		t.Fatalf("G(n,p) average degree %.2f, want about 16", avg)
	}
}

// TestUsage: bad flags exit 2 without a result line.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"-workload", "nope"}, {"-workload", "oldc-d128", "-trace", "2"}} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%q) = %d, stdout %q", args, code, out.String())
		}
	}
}
