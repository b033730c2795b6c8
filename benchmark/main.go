// Command ldcbench is the repository's benchmark. It generates one of four
// workloads from a seed, drives it through the program's public entry
// points with GOMAXPROCS and engine workers pinned to the CPU count,
// checks every output, and prints the metrics BENCHMARK.json declares:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1. The
// last line of standard output is the result object; the lines before it
// log the run header, each metric with its sample count, and the digest
// of the final coloring. See NOTES.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload oldc-d128 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Set-ups per run (setup_s is their median) and the fewest solves a solve
// workload times per half of a run.
const (
	setupReps   = 3
	minSolveOps = 3
)

// config is one run's settings.
type config struct {
	seed     int64
	budget   time.Duration
	trace    bool
	workers  int
	dataRoot string // scratch space: serve-churn stores and span files
}

// workloads maps each workload name to its full-size run.
var workloads = map[string]func(c *config) (*result, error){
	"oldc-d128":   func(c *config) (*result, error) { return runSolve(oldcD128(1024, 128), c) },
	"delta1-gnp":  func(c *config) (*result, error) { return runSolve(delta1GNP(16384, 3, 64), c) },
	"route-luby":  func(c *config) (*result, error) { return runSolve(routeLuby(131072, 64), c) },
	"serve-churn": func(c *config) (*result, error) { return runServe(serveCase{"serve-churn", 1024, 64, 3000}, c) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "oldc-d128, delta1-gnp, route-luby or serve-churn")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "none", "source revision, recorded in the header")
	dataRoot := fs.String("data", ".bench_build", "directory for store files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "ldcbench: need -workload (oldc-d128|delta1-gnp|route-luby|serve-churn), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "ldcbench: %v\n", err)
		return 1
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	c := &config{
		seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, workers: procs, dataRoot: *dataRoot,
	}
	header, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": procs, "gomaxprocs": runtime.GOMAXPROCS(0), "workers": procs,
		"go": runtime.Version(), "commit": *commit,
	})
	fmt.Fprintf(stdout, "# header %s\n", header)

	res, err := runWorkload(c)
	if err != nil {
		fmt.Fprintf(stderr, "ldcbench: %s: %v\n", *name, err)
		return 1
	}
	ms := res.endToEnd()
	if c.trace {
		ms = res.perLayer()
		path := filepath.Join(c.dataRoot, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := res.rec.write(path); err != nil {
			fmt.Fprintf(stderr, "ldcbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %s (%d)\n", path, len(res.rec.spans))
	}
	attempted, failed := res.attempts()
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "# problem %s\n", p)
	}
	fmt.Fprintf(stdout, "# ops attempted=%d failed=%d error_rate=%g\n", attempted, failed, float64(failed)/float64(attempted))
	fmt.Fprintf(stdout, "# digest %s colors=%d\n", res.digest, res.colors)
	if len(res.ops) <= 50 {
		var wall, cpu []float64
		for _, op := range res.ops {
			wall, cpu = append(wall, op.seconds*1000), append(cpu, op.cpuSeconds*1000)
		}
		fmt.Fprintf(stdout, "# untraced ops: wall_ms=%.1f cpu_ms=%.1f\n", wall, cpu)
	}
	if !c.trace {
		fmt.Fprintf(stdout, "# wall clock, not gated: %s\n", res.wallSummary())
	}
	out := map[string]map[string]any{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no successful op to measure
		}
		fmt.Fprintf(stdout, "# %-30s %16.6g %-9s %s\n", m.name, v, m.unit, m.samples)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": len(res.problems) == 0, "attempted": attempted, "failed": failed, "metrics": out,
	})
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
