// Command ldc-bench runs the reproduction experiments E1–E13 (DESIGN.md §4)
// and prints their tables; EXPERIMENTS.md is generated from its output. It
// also records the benchmark suites as ldc-bench/v2 JSON documents.
//
// Usage:
//
//	ldc-bench                  # run every experiment at full size
//	ldc-bench -quick           # smaller sweeps (< a few seconds)
//	ldc-bench -run E1,E6       # selected experiments
//	ldc-bench -suite all       # re-record every BENCH_<suite>.json here
//	ldc-bench -quick -suite shard,matrix -out /tmp/b -docs /tmp/d
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

// run is the real main; it returns the process exit code so the deferred
// CPU-profile stop executes before os.Exit.
func run() int {
	quick := flag.Bool("quick", false, "run reduced-size sweeps")
	runIDs := flag.String("run", "all", "comma-separated experiment ids (E1..E13) or 'all'")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned text")
	suites := flag.String("suite", "", "run these comma-separated benchmark suites ('all', or any of "+strings.Join(bench.Suites, ",")+"), write each to <out>/BENCH_<suite>.json (schema "+bench.Schema+"), then exit; honors -quick")
	outDir := flag.String("out", ".", "with -suite: directory for the BENCH_<suite>.json files")
	docDir := flag.String("docs", "", "with -suite: also write one ldc-verify document per row that has a coloring into this directory")
	tracePath := flag.String("trace", "", "run the canonical traced Δ=64 solve, write its ldc-trace/v1 JSONL to this path ('-' for stdout), verify reconciliation, then exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address during the run")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *pprofAddr != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *tracePath != "" {
		if err := bench.RunTraced(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		return 0
	}
	if *suites != "" {
		return runSuites(*suites, *quick, *outDir, *docDir)
	}

	s := bench.Suite{Quick: *quick}
	runners := map[string]func() (*bench.Table, error){
		"E1": s.E1, "E2": s.E2, "E3": s.E3, "E4": s.E4, "E5": s.E5,
		"E6": s.E6, "E7": s.E7, "E8": s.E8, "E9": s.E9, "E10": s.E10, "E11": s.E11, "E12": s.E12, "E13": s.E13,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}

	var selected []string
	if *runIDs == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (want E1..E13)\n", id)
				return 2
			}
			selected = append(selected, id)
		}
	}
	failed := false
	for _, id := range selected {
		t, err := runners[id]()
		if t != nil {
			if *asCSV {
				if cerr := t.RenderCSV(os.Stdout); cerr != nil {
					fmt.Fprintf(os.Stderr, "%s csv: %v\n", id, cerr)
					failed = true
				}
			} else {
				t.Render(os.Stdout)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runSuites records the named suites; it fails on the first suite error
// and, after writing every report, if any row's output is invalid.
func runSuites(list string, quick bool, outDir, docDir string) int {
	names := bench.Suites
	if list != "all" {
		names = strings.Split(list, ",")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "suite: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		rep, err := bench.RunSuite(name, quick, docDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "suite: %v\n", err)
			return 1
		}
		path := filepath.Join(outDir, "BENCH_"+name+".json")
		if err := rep.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "suite: %v\n", err)
			return 1
		}
		for _, row := range rep.Rows {
			if !row.Valid {
				fmt.Fprintf(os.Stderr, "suite: %s/%s: invalid output\n", row.Suite, row.Case)
				code = 1
			}
		}
		fmt.Fprintf(os.Stderr, "suite %s: %d rows in %v -> %s\n", name, len(rep.Rows), time.Since(start).Round(time.Millisecond), path)
	}
	return code
}
