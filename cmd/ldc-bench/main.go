// Command ldc-bench records the benchmark suites as ldc-bench/v2 JSON
// documents, one BENCH_<suite>.json each: the paper's claims E1–E13
// (DESIGN.md §4) and the engine, solver, fault, service, recovery, shard
// and who-wins suites. It exits 1, after writing the reports, when a suite
// fails or a row's verdict is false, and 2 on a usage error.
//
// Usage:
//
//	ldc-bench -suite all        # re-record every BENCH_<suite>.json here
//	ldc-bench -suite claims     # the E1–E13 claims only
//	ldc-bench -quick -suite shard,matrix -out /tmp/b -docs /tmp/d
//
// A traced solve is `ldc-run -algo oldc -trace F` followed by
// `ldc-trace F`, which exits 1 when the trace does not reconcile.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the real main: it returns the exit code, so the deferred profile
// writers run before os.Exit and tests can check the code in-process.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced-size sweeps")
	suites := fs.String("suite", "", "run these comma-separated benchmark suites ('all', or any of "+strings.Join(bench.Suites, ",")+"), write each to <out>/BENCH_<suite>.json (schema "+bench.Schema+"); honors -quick")
	outDir := fs.String("out", ".", "with -suite: directory for the BENCH_<suite>.json files")
	docDir := fs.String("docs", "", "with -suite: also write one ldc-verify document per row that has a coloring into this directory")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address during the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Resolve every suite name before running any, so a typo writes nothing.
	names := bench.Suites
	if *suites != "all" {
		names = strings.Split(strings.ReplaceAll(*suites, " ", ""), ",")
	}
	for _, name := range names {
		if !slices.Contains(bench.Suites, name) {
			if *suites != "" {
				fmt.Fprintf(stderr, "ldc-bench: unknown suite %q\n", name)
			}
			fs.Usage()
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *pprofAddr != "" {
		go func() { fmt.Fprintf(stderr, "pprof: %v\n", http.ListenAndServe(*pprofAddr, nil)) }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	return runSuites(names, *quick, *outDir, *docDir, stderr)
}

// runSuites records the named suites; it fails on the first suite error
// and, after writing every report, if any row's verdict is false.
func runSuites(names []string, quick bool, outDir, docDir string, stderr io.Writer) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "suite: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range names {
		start := time.Now()
		path := filepath.Join(outDir, "BENCH_"+name+".json")
		rep, err := bench.RunSuite(name, quick, docDir)
		if err == nil {
			err = rep.WriteFile(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "suite: %v\n", err)
			return 1
		}
		for _, row := range rep.Rows {
			if !row.Valid {
				fmt.Fprintf(stderr, "suite: %s/%s: verdict is false\n", row.Suite, row.Case)
				code = 1
			}
		}
		fmt.Fprintf(stderr, "suite %s: %d rows in %v -> %s\n", name, len(rep.Rows), time.Since(start).Round(time.Millisecond), path)
	}
	return code
}
