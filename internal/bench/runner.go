// Package bench is the benchmark harness: one runner repeats every case
// of a suite under one policy and records the suite as an ldc-bench/v2
// report (BENCH_<suite>.json). The claims suite turns the paper's theorem
// statements into the experiments E1–E13 of DESIGN.md §4; the others
// measure the engine, the solvers, fault repair, the churn service,
// recovery, shard scaling and the cross-family matrix.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
)

// Schema is the version string of every report RunSuite produces.
const Schema = "ldc-bench/v2"

// The repetition policy, the same for every case: one untimed warm-up op,
// then fullReps timed ops (quickReps under -quick), each after a forced
// GC. Timings are reported as median and quartiles over the timed ops.
const (
	fullReps  = 5
	quickReps = 2
)

// Suites names the benchmark suites in the order ldc-bench runs them; a
// suite's report is recorded as BENCH_<name>.json.
var Suites = []string{"sim", "oldc", "chaos", "serve", "recover", "shard", "matrix", "claims"}

// suiteCases maps a suite name to its case table.
var suiteCases = map[string]func(quick bool) []benchCase{
	"sim":     simCases,
	"oldc":    oldcCases,
	"chaos":   chaosCases,
	"serve":   serveCases,
	"recover": recoverCases,
	"shard":   shardCases,
	"matrix":  matrixCases,
	"claims":  claimsCases,
}

// benchCase is one row of a suite: build constructs the instance once and
// returns the op the runner repeats.
type benchCase struct {
	name   string
	params map[string]any
	build  func() (benchOp, error)
}

// benchOp runs one repetition of a case. An error aborts the suite; an
// invalid output is a verdict, reported in the result.
type benchOp func() (result, error)

// result is what one op yields. counts must be deterministic: the runner
// fails a case whose counts or verdict differ between repetitions. doc,
// when set, builds the ldc-verify document of the op's output; the
// runner calls it only when documents were requested.
type result struct {
	counts  map[string]any
	timings map[string]time.Duration
	valid   bool
	doc     func() verifyDoc
}

// Report is one suite's ldc-bench/v2 document: the machine header and one
// row per case.
type Report struct {
	Schema string `json:"schema"`
	Header Header `json:"header"`
	Rows   []Row  `json:"rows"`
}

// Header records the machine and build a report was measured on.
type Header struct {
	Date       string `json:"date"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Quick      bool   `json:"quick,omitempty"`
}

// Row is one case's outcome: its input parameters, the deterministic
// counts every repetition agreed on, the timings, the verdict, and the
// file name of its ldc-verify document when one was written. Valid holds
// when the case's output validates and every theorem bound the row
// checks, recorded as a <metric>_bound count, holds.
type Row struct {
	Suite   string            `json:"suite"`
	Case    string            `json:"case"`
	Params  map[string]any    `json:"params"`
	Counts  map[string]any    `json:"counts"`
	Timings map[string]Timing `json:"timings"`
	Valid   bool              `json:"valid"`
	Doc     string            `json:"doc,omitempty"`
}

// Timing summarizes one named timing over the timed repetitions.
type Timing struct {
	Median float64 `json:"median_ms"`
	Q1     float64 `json:"q1_ms"`
	Q3     float64 `json:"q3_ms"`
	N      int     `json:"n"`
}

// RunSuite runs every case of the named suite under the repetition policy
// and returns its report. When docDir is non-empty, every row whose op
// produces a coloring also writes an ldc-verify document there.
func RunSuite(name string, quick bool, docDir string) (*Report, error) {
	cases, ok := suiteCases[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown suite %q (want one of %s)", name, strings.Join(Suites, ","))
	}
	return runCases(name, cases(quick), quick, docDir)
}

func runCases(suite string, cases []benchCase, quick bool, docDir string) (*Report, error) {
	rep := &Report{Schema: Schema, Header: Header{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Quick:      quick,
	}}
	reps := fullReps
	if quick {
		reps = quickReps
	}
	for _, c := range cases {
		row, err := runCase(suite, c, reps, docDir)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", suite, c.name, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func runCase(suite string, c benchCase, reps int, docDir string) (Row, error) {
	op, err := c.build()
	if err != nil {
		return Row{}, err
	}
	warm, err := op()
	if err != nil {
		return Row{}, err
	}
	samples := map[string][]float64{}
	for i := 0; i < reps; i++ {
		runtime.GC()
		r, err := op()
		if err != nil {
			return Row{}, err
		}
		if r.valid != warm.valid || !reflect.DeepEqual(r.counts, warm.counts) {
			return Row{}, fmt.Errorf("repetition %d is not deterministic: counts %v valid %t, warm-up had %v valid %t",
				i+1, r.counts, r.valid, warm.counts, warm.valid)
		}
		for k, d := range r.timings {
			samples[k] = append(samples[k], float64(d.Microseconds())/1e3)
		}
	}
	row := Row{Suite: suite, Case: c.name, Params: c.params, Counts: warm.counts, Timings: map[string]Timing{}, Valid: warm.valid}
	for k, s := range samples {
		sort.Float64s(s)
		row.Timings[k] = Timing{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	}
	if docDir != "" && warm.doc != nil {
		row.Doc = suite + "-" + slug(c.name) + ".json"
		if err := os.MkdirAll(docDir, 0o755); err != nil {
			return row, err
		}
		if err := writeJSON(filepath.Join(docDir, row.Doc), warm.doc(), false); err != nil {
			return row, err
		}
	}
	return row, nil
}

// quantile interpolates linearly between the closest ranks of sorted and
// rounds to 0.1 µs (the samples are whole microseconds).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := min(int(pos), len(sorted)-2)
	if i < 0 {
		return sorted[0]
	}
	return math.Round((sorted[i]+(pos-float64(i))*(sorted[i+1]-sorted[i]))*1e4) / 1e4
}

// commit names the checked-out revision, suffixed -dirty when the tree has
// local changes, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// slug maps a case name to a filename-safe string.
func slug(name string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '-'
	}, name)
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error { return writeJSON(path, r, true) }

func writeJSON(path string, v any, indent bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("bench: encode %s: %w", path, err)
	}
	return f.Close()
}

// verifyDoc is the ldc-verify input document (see cmd/ldc-verify) a row
// writes so its output can be re-checked by the standalone validator.
type verifyDoc struct {
	N        int          `json:"n"`
	Edges    [][2]int     `json:"edges"`
	Space    int          `json:"space"`
	Lists    []verifyList `json:"lists,omitempty"`
	Coloring []int        `json:"coloring"`
	Variant  string       `json:"variant"`
}

type verifyList struct {
	Colors  []int `json:"colors"`
	Defects []int `json:"defects"`
}

// properDoc is the document of a proper coloring of g from [space].
func properDoc(g *graph.Graph, space int, phi coloring.Assignment) verifyDoc {
	d := verifyDoc{N: g.N(), Edges: make([][2]int, 0, g.M()), Space: space, Coloring: phi, Variant: "proper"}
	g.ForEachEdge(func(u, v int) { d.Edges = append(d.Edges, [2]int{u, v}) })
	return d
}

// listDoc is the document of a list coloring of g checked as variant:
// "ldc", or "oldc-by-id" under the by-ID orientation of g.
func listDoc(variant string, g *graph.Graph, space int, lists []coloring.NodeList, phi coloring.Assignment) verifyDoc {
	d := properDoc(g, space, phi)
	d.Variant = variant
	d.Lists = make([]verifyList, len(lists))
	for v, l := range lists {
		d.Lists[v] = verifyList{Colors: l.Colors, Defects: l.Defect}
	}
	return d
}
