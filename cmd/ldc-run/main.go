// Command ldc-run runs a single coloring algorithm on a generated graph
// and reports rounds, message statistics, and (optionally) the coloring
// itself as JSON. It is the ad-hoc exploration companion to ldc-bench.
//
// Usage examples:
//
//	ldc-run -graph regular -n 128 -deg 8 -algo delta1
//	ldc-run -graph gnp -n 200 -p 0.05 -algo luby -json
//	ldc-run -graph torus -rows 8 -cols 8 -algo mis
//	ldc-run -graph regular -n 64 -deg 8 -algo oldc -kappa 6
//	ldc-run -graph file:web.edges -algo degluby  # edge-list file on disk
//	ldc-run -graph pa -n 100000 -deg 3 -algo luby -shards 8
//	ldc-run -algo oldc -chaos drop:0.1+flip:0.01 -repair
//	ldc-run -algo degluby -chaos kill:3+kill:9 -ckpt run.ckpt  # killed twice, resumed twice
//	ldc-run -algo oldc -chaos kill:2 -ckpt run.ckpt -trace run.jsonl
//	ldc-run -graph regular -n 256 -deg 8 -algo fk24 -buckets 18
//	ldc-run -graph regular -n 512 -deg 8 -algo maus21 -k 2
//	ldc-run -algo oldc -trace run.jsonl          # then: ldc-trace run.jsonl
//	ldc-run -algo delta1 -cpuprofile cpu.out
//
// Exit status 0 = the run produced a valid output, 1 = the run failed or
// produced an invalid output, 2 = usage error (unknown flag, algorithm,
// or graph family, or an unsupported flag combination). With
// -metrics-addr the process parks to serve /metrics only after a
// successful run — a failed solve still exits nonzero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/congest"
	"repro/internal/fk24"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/maus21"
	"repro/internal/mis"
	"repro/internal/obs"
	"repro/internal/oldc"
	"repro/internal/seq"
	"repro/internal/sim"
)

type output struct {
	Graph       string   `json:"graph"`
	N           int      `json:"n"`
	Edges       [][2]int `json:"edges,omitempty"`
	M           int      `json:"m"`
	MaxDegree   int      `json:"max_degree"`
	Algorithm   string   `json:"algorithm"`
	Rounds      int      `json:"rounds"`
	Messages    int64    `json:"messages"`
	TotalBits   int64    `json:"total_bits"`
	MaxMsgBits  int      `json:"max_message_bits"`
	ColorsUsed  int      `json:"colors_used,omitempty"`
	MISSize     int      `json:"mis_size,omitempty"`
	Valid       bool     `json:"valid"`
	Coloring    []int    `json:"coloring,omitempty"`
	Independent []bool   `json:"independent_set,omitempty"`
	SeedUsed    int64    `json:"seed"`
	KappaUsed   float64  `json:"kappa,omitempty"`

	// Chaos-mode fields (-chaos / -repair / -ckpt).
	Restarts     int      `json:"restarts,omitempty"`
	ChaosSpec    string   `json:"chaos,omitempty"`
	Dropped      int64    `json:"dropped,omitempty"`
	Corrupted    int64    `json:"corrupted,omitempty"`
	DecodeFaults int64    `json:"decode_faults,omitempty"`
	SurvivalRate *float64 `json:"survival_rate,omitempty"`
	InitialBad   int      `json:"initial_bad,omitempty"`
	Repairs      int      `json:"repairs,omitempty"`
	RepairRounds int      `json:"repair_rounds,omitempty"`
	Fallback     int      `json:"fallback_recolorings,omitempty"`
	ResidualBad  []int    `json:"residual_violators,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fatalError carries an exit code through the panic that die/fatalf raise;
// run recovers it after the deferred cleanups (trace flush, CPU profile
// stop) have executed.
type fatalError struct {
	code int
	err  error
}

// die aborts the run with exit code 1 when err is non-nil.
func die(err error) {
	if err != nil {
		panic(fatalError{1, err})
	}
}

// fatalf aborts the run with the given exit code (2 = usage error).
func fatalf(code int, format string, args ...interface{}) {
	panic(fatalError{code, fmt.Errorf(format, args...)})
}

// run is the real main; it returns the process exit code so deferred
// cleanups execute before os.Exit and so the exit-code contract is
// testable in-process. It writes results to stdout and diagnostics to
// stderr.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ldc-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gname  = fs.String("graph", "regular", "ring|clique|grid|torus|hypercube|regular|gnp|tree|pa|geometric, or file:<path> for an edge-list file")
		n      = fs.Int("n", 64, "node count (where applicable)")
		deg    = fs.Int("deg", 6, "degree for regular / attachment count for pa")
		p      = fs.Float64("p", 0.1, "edge probability for gnp")
		rows   = fs.Int("rows", 8, "rows for grid/torus")
		cols   = fs.Int("cols", 8, "cols for grid/torus")
		dim    = fs.Int("dim", 6, "dimension for hypercube")
		radius = fs.Float64("radius", 0.15, "radius for geometric")
		seed   = fs.Int64("seed", 1, "generator seed")
		algo    = fs.String("algo", "delta1", "delta1|linear|slow|luby|degluby|greedy|mis|mis-luby|oldc|fk24|maus21")
		shards  = fs.Int("shards", 0, "worker count of every engine ldc-run builds: contiguous node ranges, one goroutine each (0 = GOMAXPROCS; not for delta1, greedy, mis)")
		kappa   = fs.Float64("kappa", 5.0, "square-sum slack for -algo oldc/fk24")
		buckets = fs.Int("buckets", 0, "commit buckets for -algo fk24 (0 = default 2β̂+2; m = fully sequential)")
		kknob   = fs.Int("k", 0, "palette knob for -algo maus21: target O(kΔ) colors (0 = plain Linial)")
		spec    = fs.String("chaos", "", "fault schedule: a built-in name (see internal/chaos) or a spec like drop:0.1+flip:0.01+crash:3@2; wire faults need -algo oldc or fk24, kill:/killshard: terms need -algo degluby or oldc with -ckpt")
		repair  = fs.Bool("repair", false, "detect-and-repair solving for -algo oldc (oldc.SolveRobust)")
		asJSON  = fs.Bool("json", false, "emit the full result as JSON")

		ckptPath    = fs.String("ckpt", "", "checkpoint file for -algo degluby or oldc: written at round boundaries, resumed from when it already exists")
		ckptEvery   = fs.Int("ckpt-every", 1, "checkpoint cadence in rounds for -ckpt")
		maxRestarts = fs.Int("max-restarts", 5, "restarts allowed after injected kills (-chaos kill:/killshard:) before giving up")

		tracePath   = fs.String("trace", "", "write an ldc-trace/v1 JSONL round trace to this path ('-' = stdout); summarize with ldc-trace")
		metricsAddr = fs.String("metrics-addr", "", "after a successful run, serve Prometheus-style text metrics on this address at /metrics (keeps the process alive)")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this address during the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defer func() {
		if r := recover(); r != nil {
			fe, ok := r.(fatalError)
			if !ok {
				panic(r)
			}
			fmt.Fprintf(stderr, "ldc-run: %v\n", fe.err)
			code = fe.code
		}
	}()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		die(err)
		die(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *pprofAddr != "" {
		go func() { fmt.Fprintf(stderr, "pprof: %v\n", http.ListenAndServe(*pprofAddr, nil)) }()
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}

	var tracer *obs.JSONL
	var traceFile *os.File
	if *tracePath != "" {
		switch *algo {
		case "mis", "greedy":
			fatalf(2, "-trace is not supported for -algo %s (no simulator engine to observe)", *algo)
		}
		w := io.Writer(stdout)
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			die(err)
			defer f.Close()
			w = f
			traceFile = f
		}
		tracer = obs.NewJSONL(w)
		defer tracer.Close()
	}

	g := buildGraph(*gname, *n, *deg, *p, *rows, *cols, *dim, *radius, *seed)
	out := output{Graph: *gname, N: g.N(), M: g.M(), MaxDegree: g.MaxDegree(), Algorithm: *algo, SeedUsed: *seed}
	obs.EmitStart(tracerOrNil(tracer), obs.RunInfo{Algo: *algo, Graph: *gname, N: g.N(), M: g.M(), MaxDegree: g.MaxDegree(), Seed: *seed})

	var plan *chaos.Plan
	if *spec != "" {
		var err error
		plan, err = resolvePlan(*spec, uint64(*seed), g)
		die(err)
	}
	switch {
	case *repair && *algo != "oldc":
		fatalf(2, "-repair only applies to -algo oldc")
	case *spec != "" && *algo != "oldc" && *algo != "degluby" && *algo != "fk24":
		fatalf(2, "-chaos applies to -algo oldc/fk24 (wire faults) or -algo degluby/oldc (kill schedules); the other algorithms have no hardened decode paths")
	case plan != nil && len(plan.Kills) > 0 && *algo != "degluby" && *algo != "oldc":
		fatalf(2, "kill:/killshard: terms need a resumable algorithm: use -algo degluby or oldc with -ckpt")
	case plan != nil && len(plan.Kills) > 0 && *ckptPath == "":
		fatalf(2, "kill:/killshard: terms need -ckpt so restarted attempts can resume from a checkpoint")
	case plan != nil && len(plan.Kills) > 0 && *tracePath == "-":
		fatalf(2, "kill schedules need -trace to name a real file (not '-') so replayed rounds can be truncated on resume")
	case plan != nil && plan.Corrupting && *algo == "degluby":
		fatalf(2, "flip terms are not supported for -algo degluby (its decoder is not hardened against corrupted payloads)")
	case *ckptPath != "" && *algo != "degluby" && *algo != "oldc":
		fatalf(2, "-ckpt applies to -algo degluby or oldc (the algorithms that snapshot their state)")
	case *ckptPath != "" && *repair:
		fatalf(2, "-ckpt and -repair are mutually exclusive (the repair pipeline has no snapshotter)")
	case *shards != 0 && (*algo == "delta1" || *algo == "greedy" || *algo == "mis"):
		fatalf(2, "-shards does not apply to -algo %s (delta1 builds its own engines; greedy and mis run none)", *algo)
	}

	// engineOpts carries the worker count and the observers into every
	// engine this command creates directly; the congest/arb layers thread
	// the observers further down.
	engineOpts := sim.Options{Workers: *shards, Tracer: tracerOrNil(tracer), Metrics: reg}
	// traceStats accumulates the stats of exactly the engines the tracer
	// observed, so the end event reconciles with the round events.
	var traceStats sim.Stats

	switch *algo {
	case "delta1":
		res, err := congest.DeltaPlusOne(g, congest.Config{Tracer: tracerOrNil(tracer), Metrics: reg})
		die(err)
		fill(&out, res.Stats, res.Phi)
		traceStats = res.Stats
		out.Valid = coloring.CheckProper(g, res.Phi, g.MaxDegree()+1) == nil
	case "linear":
		phi, stats, err := baseline.LinearDeltaPlusOne(sim.NewEngineWith(g, engineOpts), g)
		die(err)
		fill(&out, stats, phi)
		traceStats = stats
		out.Valid = coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil
	case "slow":
		phi, stats, err := baseline.SlowFold(sim.NewEngineWith(g, engineOpts), g)
		die(err)
		fill(&out, stats, phi)
		traceStats = stats
		out.Valid = coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil
	case "luby":
		phi, stats, err := baseline.Luby(sim.NewEngineWith(g, engineOpts), g, *seed)
		die(err)
		fill(&out, stats, phi)
		traceStats = stats
		out.Valid = coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil
	case "degluby":
		simOpts := engineOpts
		if plan != nil {
			simOpts.Faults = plan.Model
			out.ChaosSpec = *spec
		}
		if *ckptPath != "" {
			phi, stats, restarts, err := superviseDegluby(superviseConfig{
				g:           g,
				seed:        *seed,
				newEngine:   func() *sim.Engine { return sim.NewEngineWith(g, simOpts) },
				plan:        plan,
				path:        *ckptPath,
				every:       *ckptEvery,
				maxRestarts: *maxRestarts,
				traceFile:   traceFile,
				tracer:      tracer,
				reg:         reg,
				stderr:      stderr,
			})
			die(err)
			fill(&out, stats, phi)
			traceStats = stats
			out.Restarts = restarts
			out.Valid = coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil
		} else {
			phi, stats, err := baseline.DegreeLuby(sim.NewEngineWith(g, simOpts), g, *seed)
			die(err)
			fill(&out, stats, phi)
			traceStats = stats
			out.Valid = coloring.CheckProper(g, phi, g.MaxDegree()+1) == nil
		}
		if plan != nil {
			total := traceStats.TotalFaults()
			out.Dropped = total.Dropped
			out.Corrupted = total.Corrupted
			out.DecodeFaults = total.DecodeFaults
		}
	case "greedy":
		in := coloring.DegreePlusOne(g, 2*g.MaxDegree()+2, *seed)
		phi, err := seq.Greedy(in)
		die(err)
		fill(&out, sim.Stats{}, phi)
		out.Valid = coloring.CheckProperList(in, phi) == nil
	case "mis":
		set, stats, err := mis.Deterministic(g)
		die(err)
		out.Rounds = stats.Rounds
		out.Messages = stats.Messages
		out.TotalBits = stats.TotalBits
		out.MaxMsgBits = stats.MaxMessageBits
		out.Valid = mis.Check(g, set) == nil
		out.MISSize = countTrue(set)
		if *asJSON {
			out.Independent = set
		}
	case "mis-luby":
		set, stats, err := mis.Luby(sim.NewEngineWith(g, engineOpts), g, *seed)
		die(err)
		out.Rounds = stats.Rounds
		out.Messages = stats.Messages
		out.TotalBits = stats.TotalBits
		out.MaxMsgBits = stats.MaxMessageBits
		traceStats = stats
		out.Valid = mis.Check(g, set) == nil
		out.MISSize = countTrue(set)
		if *asJSON {
			out.Independent = set
		}
	case "oldc":
		o := graph.OrientByID(g)
		// The Linial substrate runs fault-free and untraced: the chaos
		// harness and the tracer both target the OLDC phase, so the trace's
		// end totals reconcile against the solve engines alone.
		init, m, _, err := linial.Proper(sim.NewEngineWith(g, sim.Options{Workers: *shards}), graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
		die(err)
		inst := coloring.SquareSumOrientedRange(o, 4096, *kappa, 1, 3, *seed)
		in := oldc.Input{O: o, SpaceSize: 4096, Lists: inst.Lists, InitColors: init, M: m}
		simOpts := engineOpts
		if plan != nil {
			simOpts.Faults = plan.Model
			out.ChaosSpec = *spec
		}
		var runStats sim.Stats
		if *ckptPath != "" {
			phi, stats, restarts, err := superviseOldc(superviseConfig{
				g:           g,
				seed:        *seed,
				newEngine:   func() *sim.Engine { return sim.NewEngineWith(g, simOpts) },
				plan:        plan,
				path:        *ckptPath,
				every:       *ckptEvery,
				maxRestarts: *maxRestarts,
				traceFile:   traceFile,
				tracer:      tracer,
				reg:         reg,
				stderr:      stderr,
			}, in, oldc.Options{SkipValidate: *spec != ""})
			die(err)
			fill(&out, stats, phi)
			runStats = stats
			out.Restarts = restarts
			out.Valid = coloring.CheckOLDC(o, in.Lists, phi) == nil
		} else if *repair {
			eng := sim.NewEngineWith(g, simOpts)
			phi, rep, err := oldc.SolveRobust(eng, in, oldc.RobustOptions{})
			var res *oldc.ErrResidual
			if err != nil && !errors.As(err, &res) {
				die(err)
			}
			fill(&out, rep.Stats, phi)
			runStats = rep.Stats
			out.Valid = err == nil
			sr := rep.SurvivalRate
			out.SurvivalRate = &sr
			out.InitialBad = rep.InitialBad
			out.Repairs = rep.Repairs
			out.RepairRounds = rep.RepairRounds
			out.Fallback = rep.FallbackNodes
			if res != nil {
				out.ResidualBad = res.Violators
			}
		} else {
			eng := sim.NewEngineWith(g, simOpts)
			solveOpts := oldc.Options{SkipValidate: *spec != ""} // a faulty run may legitimately violate
			phi, stats, err := oldc.Solve(eng, in, solveOpts)
			die(err)
			fill(&out, stats, phi)
			runStats = stats
			out.Valid = coloring.CheckOLDC(o, in.Lists, phi) == nil
		}
		traceStats = runStats
		total := runStats.TotalFaults()
		out.Dropped = total.Dropped
		out.Corrupted = total.Corrupted
		out.DecodeFaults = total.DecodeFaults
		out.KappaUsed = *kappa
	case "fk24":
		o := graph.OrientByID(g)
		// Same fault-free, untraced Linial substrate as -algo oldc: the
		// chaos harness and the tracer target the committing phase only.
		init, m, _, err := linial.Proper(sim.NewEngineWith(g, sim.Options{Workers: *shards}), graph.OrientSymmetric(g), linial.IDs(g.N()), g.N())
		die(err)
		inst := coloring.SquareSumOrientedRange(o, 4096, *kappa, 1, 3, *seed)
		in := fk24.Input{O: o, SpaceSize: 4096, Lists: inst.Lists, InitColors: init, M: m}
		simOpts := engineOpts
		if plan != nil {
			simOpts.Faults = plan.Model
			out.ChaosSpec = *spec
		}
		phi, stats, err := fk24.Solve(sim.NewEngineWith(g, simOpts), in,
			fk24.Options{Buckets: *buckets, SkipValidate: *spec != ""})
		die(err)
		fill(&out, stats, phi)
		traceStats = stats
		out.Valid = coloring.CheckOLDC(o, in.Lists, phi) == nil
		total := stats.TotalFaults()
		out.Dropped = total.Dropped
		out.Corrupted = total.Corrupted
		out.DecodeFaults = total.DecodeFaults
		out.KappaUsed = *kappa
	case "maus21":
		phi, colors, stats, err := maus21.Solve(sim.NewEngineWith(g, engineOpts), g, maus21.Options{K: *kknob})
		die(err)
		fill(&out, stats, phi)
		traceStats = stats
		out.Valid = coloring.CheckProper(g, phi, colors) == nil
	default:
		fatalf(2, "unknown algorithm %q", *algo)
	}

	if tracer != nil {
		tracer.End(traceStats.TraceTotals())
		die(tracer.Flush())
	}

	if *asJSON {
		// Include the edge list so the document is self-contained and can
		// be piped into ldc-verify.
		g.ForEachEdge(func(u, v int) { out.Edges = append(out.Edges, [2]int{u, v}) })
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		die(enc.Encode(out))
	} else {
		fmt.Fprintf(stdout, "graph=%s n=%d m=%d Δ=%d\n", out.Graph, out.N, out.M, out.MaxDegree)
		fmt.Fprintf(stdout, "algo=%s rounds=%d messages=%d total=%d bits max-msg=%d bits\n",
			out.Algorithm, out.Rounds, out.Messages, out.TotalBits, out.MaxMsgBits)
		if out.ColorsUsed > 0 {
			fmt.Fprintf(stdout, "colors used: %d\n", out.ColorsUsed)
		}
		if out.MISSize > 0 {
			fmt.Fprintf(stdout, "MIS size: %d\n", out.MISSize)
		}
		if out.ChaosSpec != "" {
			fmt.Fprintf(stdout, "chaos=%s dropped=%d corrupted=%d decode-faults=%d\n",
				out.ChaosSpec, out.Dropped, out.Corrupted, out.DecodeFaults)
		}
		if out.Restarts > 0 {
			fmt.Fprintf(stdout, "restarts: %d\n", out.Restarts)
		}
		if out.SurvivalRate != nil {
			fmt.Fprintf(stdout, "survival=%.3f initial-bad=%d repairs=%d repair-rounds=%d fallback=%d residual=%d\n",
				*out.SurvivalRate, out.InitialBad, out.Repairs, out.RepairRounds, out.Fallback, len(out.ResidualBad))
		}
		fmt.Fprintf(stdout, "valid: %v\n", out.Valid)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		die(err)
		runtime.GC()
		die(pprof.WriteHeapProfile(f))
		die(f.Close())
	}

	// An invalid or failed run must exit nonzero even when -metrics-addr
	// is set: parking the process to serve metrics used to run first and
	// mask the exit code from CI wrappers, so the server now only starts
	// after the run has been judged successful.
	if !out.Valid {
		return 1
	}
	if *metricsAddr != "" {
		fmt.Fprintf(stderr, "serving metrics on http://%s/metrics (Ctrl-C to exit)\n", *metricsAddr)
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := reg.WriteText(w); err != nil {
				fmt.Fprintf(stderr, "metrics: %v\n", err)
			}
		})
		die(http.ListenAndServe(*metricsAddr, nil))
	}
	return 0
}

// tracerOrNil converts a possibly-nil *obs.JSONL into an obs.Tracer that is
// a true nil interface when no trace was requested, so the engine's
// zero-overhead nil check works.
func tracerOrNil(tr *obs.JSONL) obs.Tracer {
	if tr == nil {
		return nil
	}
	return tr
}

// resolvePlan interprets spec as a built-in wire schedule name first, a
// built-in recovery plan name second, and a chaos.ParsePlan expression
// otherwise, so every schedule ldc-bench knows by name is also reachable
// from the CLI.
func resolvePlan(spec string, seed uint64, g *graph.Graph) (*chaos.Plan, error) {
	for _, sched := range chaos.Builtin(g, seed) {
		if sched.Name == spec {
			return &chaos.Plan{Model: sched.Model, Corrupting: sched.Corrupting}, nil
		}
	}
	for _, np := range chaos.BuiltinRecovery(g, seed) {
		if np.Name == spec {
			return np.Plan, nil
		}
	}
	return chaos.ParsePlan(spec, seed, g)
}

func buildGraph(name string, n, deg int, p float64, rows, cols, dim int, radius float64, seed int64) *graph.Graph {
	if path, ok := strings.CutPrefix(name, "file:"); ok {
		g, err := graph.LoadEdgeListFile(path)
		die(err)
		return g
	}
	switch name {
	case "ring":
		return graph.Ring(n)
	case "clique":
		return graph.Clique(n)
	case "grid":
		return graph.Grid(rows, cols)
	case "torus":
		return graph.Torus(rows, cols)
	case "regular":
		if n*deg%2 != 0 {
			n++
		}
		return graph.RandomRegular(n, deg, seed)
	case "hypercube":
		return graph.Hypercube(dim)
	case "gnp":
		return graph.GNP(n, p, seed)
	case "tree":
		return graph.RandomTree(n, seed)
	case "pa":
		return graph.PreferentialAttachment(n, deg, seed)
	case "geometric":
		g, _ := graph.RandomGeometric(n, radius, seed)
		return g
	default:
		fatalf(2, "unknown graph family %q", name)
		return nil
	}
}

func fill(out *output, stats sim.Stats, phi coloring.Assignment) {
	out.Rounds = stats.Rounds
	out.Messages = stats.Messages
	out.TotalBits = stats.TotalBits
	out.MaxMsgBits = stats.MaxMessageBits
	out.ColorsUsed = coloring.CountColors(phi)
	out.Coloring = phi
}

func countTrue(set []bool) int {
	c := 0
	for _, s := range set {
		if s {
			c++
		}
	}
	return c
}
