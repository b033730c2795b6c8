// Command ldc-bench runs the reproduction experiments E1–E10 (DESIGN.md §4)
// and prints their tables; EXPERIMENTS.md is generated from its output.
//
// Usage:
//
//	ldc-bench                  # run everything at full size
//	ldc-bench -quick           # smaller sweeps (< a few seconds)
//	ldc-bench -run E1,E6       # selected experiments
//	ldc-bench -simbench out.json  # engine microbenchmark → machine-readable JSON
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

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
	simbench := flag.String("simbench", "", "run the simulator microbenchmark suite and write machine-readable JSON to this path ('-' for stdout), then exit")
	algbench := flag.String("algbench", "", "run the OLDC algorithm benchmark suite and write machine-readable JSON to this path ('-' for stdout), then exit")
	chaosbench := flag.String("chaosbench", "", "run detect-and-repair solving under every built-in fault schedule and write machine-readable JSON to this path ('-' for stdout), then exit")
	servebench := flag.String("servebench", "", "run the incremental recoloring service under sustained churn and write machine-readable JSON to this path ('-' for stdout), then exit")
	recoverybench := flag.String("recoverybench", "", "run the crash-recovery suite (supervised kill/resume + durable-store WAL replay) and write machine-readable JSON to this path ('-' for stdout), then exit")
	shardbench := flag.String("shardbench", "", "run the worker-count (shard) scaling curve and the large streamed power-law solve, write machine-readable JSON to this path ('-' for stdout), then exit")
	shardSolveOut := flag.String("shardsolve-out", "", "with -shardbench: also write the big run's instance+coloring as an ldc-verify document to this path")
	matrixbench := flag.String("matrixbench", "", "run the cross-family who-wins matrix (oldc, fk24, maus21, delta1, degluby across Δ columns) and write machine-readable JSON to this path ('-' for stdout), then exit; honors -quick")
	matrixDocs := flag.String("matrix-docs", "", "with -matrixbench: also write one ldc-verify document per matrix row into this directory")
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
	if *simbench != "" {
		rep := bench.RunSimBench()
		if err := rep.WriteJSON(*simbench); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *algbench != "" {
		rep := bench.RunAlgBench()
		if err := rep.WriteJSON(*algbench); err != nil {
			fmt.Fprintf(os.Stderr, "algbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *chaosbench != "" {
		rep := bench.RunChaosBench()
		if err := rep.WriteJSON(*chaosbench); err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *servebench != "" {
		rep, err := bench.RunServeBench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			return 1
		}
		if err := rep.WriteJSON(*servebench); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			return 1
		}
		return 0
	}
	if *recoverybench != "" {
		rep, err := bench.RunRecoverBench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "recoverybench: %v\n", err)
			return 1
		}
		if err := rep.WriteJSON(*recoverybench); err != nil {
			fmt.Fprintf(os.Stderr, "recoverybench: %v\n", err)
			return 1
		}
		return 0
	}
	if *matrixbench != "" {
		rep, err := bench.RunMatrixBench(*quick, *matrixDocs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matrixbench: %v\n", err)
			return 1
		}
		if err := rep.WriteJSON(*matrixbench); err != nil {
			fmt.Fprintf(os.Stderr, "matrixbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *shardbench != "" {
		rep, err := bench.RunShardBench(*quick, *shardSolveOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			return 1
		}
		if err := rep.WriteJSON(*shardbench); err != nil {
			fmt.Fprintf(os.Stderr, "shardbench: %v\n", err)
			return 1
		}
		return 0
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
