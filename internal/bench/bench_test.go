package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:     "T0",
		Title:  "demo",
		Claim:  "demo claim",
		Header: []string{"a", "bee"},
	}
	tb.AddRow(1, 2.5)
	tb.AddRow("xyz", true)
	tb.Notes = append(tb.Notes, "a note")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T0 — demo", "demo claim", "bee", "2.50", "xyz", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := &Table{ID: "T1", Title: "t", Claim: "c", Header: []string{"x", "y"}}
	tb.AddRow(1, "a,b")
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "x,y") || !strings.Contains(out, `"a,b"`) {
		t.Fatalf("csv output wrong:\n%s", out)
	}
}

func TestSuitePick(t *testing.T) {
	s := Suite{Quick: true}
	if got := s.pick([]int{1}, []int{1, 2}); len(got) != 1 {
		t.Fatal("quick pick wrong")
	}
	s.Quick = false
	if got := s.pick([]int{1}, []int{1, 2}); len(got) != 2 {
		t.Fatal("full pick wrong")
	}
}

// Each experiment must complete and produce at least one row in quick mode.
func TestExperimentsQuick(t *testing.T) {
	s := Suite{Quick: true}
	for _, tc := range []struct {
		name string
		run  func() (*Table, error)
	}{
		{"E1", s.E1}, {"E2", s.E2}, {"E3", s.E3}, {"E4", s.E4}, {"E5", s.E5},
		{"E6", s.E6}, {"E7", s.E7}, {"E8", s.E8}, {"E9", s.E9}, {"E10", s.E10}, {"E11", s.E11}, {"E12", s.E12}, {"E13", s.E13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			var buf bytes.Buffer
			tb.Render(&buf)
			if buf.Len() == 0 {
				t.Fatal("empty render")
			}
		})
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
