package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// TestExperimentsQuick checks the claims case table per experiment: each
// E<k> has rows at both sizes, every -quick row is a full-size row (so the
// smoke run exercises recorded points), and no two rows share a name,
// which also names their ldc-verify documents. TestSuitesQuick/claims
// runs the rows.
func TestExperimentsQuick(t *testing.T) {
	names := func(quick bool) map[string]bool {
		seen := map[string]bool{}
		for _, c := range claimsCases(quick) {
			if seen[c.name] || len(c.params) == 0 {
				t.Errorf("quick=%t: row %s is duplicated or has no params", quick, c.name)
			}
			seen[c.name] = true
		}
		return seen
	}
	full, quick := names(false), names(true)
	for k := 1; k <= 13; k++ {
		exp := fmt.Sprintf("E%d", k)
		t.Run(exp, func(t *testing.T) {
			nFull, nQuick := 0, 0
			for name := range full {
				if strings.HasPrefix(name, exp+"/") {
					nFull++
				}
			}
			for name := range quick {
				if strings.HasPrefix(name, exp+"/") {
					nQuick++
					if !full[name] {
						t.Errorf("quick row %s is not a full-size row", name)
					}
				}
			}
			if nFull == 0 || nQuick == 0 {
				t.Errorf("%d full-size and %d quick rows", nFull, nQuick)
			}
		})
	}
}

// TestClaimVerdictsBite runs claims rows whose bound fails or whose output
// breaks the OLDC condition: the runner must report them invalid, with
// the bound recorded, rather than drop or abort them.
func TestClaimVerdictsBite(t *testing.T) {
	w := workload{4, 32, 1 << 13, 5.0, 1, 3, 4}
	offByOne := oldcRow{name: "bound", w: w, solve: oldc.Solve,
		check: func(_ oldc.Input, st sim.Stats, counts map[string]any) bool {
			counts["rounds_bound"] = st.Rounds + 1
			return st.Rounds == st.Rounds+1
		}}
	allZero := oldcRow{name: "output", w: w,
		solve: func(_ *sim.Engine, in oldc.Input, _ oldc.Options) (coloring.Assignment, sim.Stats, error) {
			return make(coloring.Assignment, in.O.N()), sim.Stats{}, nil
		}}
	rep, err := runCases("claims", []benchCase{offByOne.benchCase(), allZero.benchCase()}, true, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.Valid {
			t.Errorf("%s: false verdict reported valid: %v", row.Case, row.Counts)
		}
	}
	if rep.Rows[0].Counts["rounds_bound"] == nil || rep.Rows[1].Counts["violations"] == 0 {
		t.Errorf("bound or violations not recorded: %v, %v", rep.Rows[0].Counts, rep.Rows[1].Counts)
	}
}

// TestMatrixBoundsBite checks the matrix rows' theorem bounds: each records
// its <metric>_bound and fails a metric beyond it.
func TestMatrixBoundsBite(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	in := oldc.Input{M: 18}
	for _, c := range []struct {
		bound  rowBound
		counts map[string]any
		key    string
		want   int
		ok     bool
	}{
		{colorsDelta1, map[string]any{"colors": 3}, "colors_bound", 3, true},
		{colorsDelta1, map[string]any{"colors": 4}, "colors_bound", 3, false},
		{fk24Rounds(func(in oldc.Input) int { return in.M }), map[string]any{"rounds": 20}, "rounds_bound", 20, true},
		{fk24Rounds(func(in oldc.Input) int { return in.M }), map[string]any{"rounds": 21}, "rounds_bound", 20, false},
	} {
		if ok := c.bound(g, in, c.counts); ok != c.ok || c.counts[c.key] != c.want {
			t.Errorf("counts %v: verdict %t, want %t with %s = %d", c.counts, ok, c.ok, c.key, c.want)
		}
	}
}

// TestSuitesQuick runs every suite through the runner at -quick: each
// report carries the v2 schema and a populated header, every row is valid
// with ordered quartiles, and every emitted ldc-verify document exists.
func TestSuitesQuick(t *testing.T) {
	for _, name := range Suites {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := RunSuite(name, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			h := rep.Header
			if rep.Schema != "ldc-bench/v2" || h.Date == "" || h.GoOS == "" || h.GoArch == "" || h.CPUs < 1 ||
				h.GoMaxProcs < 1 || h.GoVersion == "" || h.Commit == "" || !h.Quick {
				t.Fatalf("schema %q, header %+v", rep.Schema, h)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range rep.Rows {
				if row.Suite != name || !row.Valid || len(row.Counts) == 0 || len(row.Timings) == 0 {
					t.Errorf("%s: suite %q valid %t, %d counts, %d timings", row.Case, row.Suite, row.Valid, len(row.Counts), len(row.Timings))
				}
				for k, tm := range row.Timings {
					if tm.N != quickReps || tm.Q1 > tm.Median || tm.Median > tm.Q3 {
						t.Errorf("%s: timing %s = %+v", row.Case, k, tm)
					}
				}
				if row.Doc == "" {
					continue
				}
				if st, err := os.Stat(filepath.Join(dir, row.Doc)); err != nil || st.Size() == 0 {
					t.Errorf("%s: verify doc %s missing or empty (%v)", row.Case, row.Doc, err)
				}
			}
		})
	}
}

// TestRunnerRejectsDrift gives the runner a case whose count changes
// between repetitions: the suite must fail rather than report it.
func TestRunnerRejectsDrift(t *testing.T) {
	calls := 0
	drift := benchCase{name: "drift", build: func() (benchOp, error) {
		return func() (result, error) {
			calls++
			return result{counts: map[string]any{"rounds": calls}, valid: true}, nil
		}, nil
	}}
	if _, err := runCases("fake", []benchCase{drift}, true, ""); err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("drifting counts were accepted (err = %v)", err)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if q1, med, q3 := quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75); q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles %v %v %v", q1, med, q3)
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Fatalf("single sample quantile %v", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolated median %v", got)
	}
}
