// Command ldc-serve runs the incremental recoloring service: it loads a
// generated graph, solves the initial OLDC instance, and then keeps the
// coloring valid while clients mutate the graph and query colors. The
// engine (internal/serve) recolors only the region each mutation batch
// disturbs, via the same detect-and-repair pipeline SolveRobust uses.
//
// Two front ends share the engine:
//
//	ldc-serve -graph regular -n 256 -deg 8 -script batches.jsonl
//	ldc-serve -graph regular -n 256 -deg 8 -addr :8080
//
// Script mode applies one JSON mutation batch per input line and prints
// one BatchReport per line; HTTP mode exposes:
//
//	GET  /color?v=3   →  {"v":3,"color":17}
//	POST /batch       →  BatchReport (body: [{"op":"add_edge","u":1,"v":2}, ...])
//	GET  /coloring    →  {"n":256,"batches":4,"coloring":[...]}
//	GET  /metrics     →  Prometheus text (the ldc_serve_* catalog)
//	GET  /healthz     →  ok (503 when the durable store is degraded)
//
// With -data DIR the server keeps a crash-safe WAL+snapshot store in DIR
// (serve.OpenDurable): every applied batch is logged before it executes,
// the WAL is periodically compacted into a snapshot, and a restart with
// the same -data restores the exact pre-crash state. Interior store
// corruption puts the server into degraded read-only mode: reads keep
// working, /batch answers 503. Formats and the recovery procedure are
// documented in docs/RECOVERY.md.
//
// Exit status 0 = clean run, 1 = runtime failure (initial solve, store
// open, or a script batch), 2 = usage error. The API and determinism
// contract are documented in docs/SERVICE.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// service bundles the engine with its optional durability layer so the
// HTTP mux and script runner drive either mode through one seam: apply
// routes mutations through the WAL when -data is set, and degraded
// reports the store's read-only state (always nil for ephemeral servers).
type service struct {
	srv      *serve.Server
	dur      *serve.Durable // nil without -data
	maxBatch int            // -max-batch: mutations accepted per /batch request
}

func (svc *service) apply(batch []serve.Mutation) (serve.BatchReport, error) {
	if svc.dur != nil {
		return svc.dur.Apply(batch)
	}
	return svc.srv.Apply(batch)
}

func (svc *service) degraded() error {
	if svc.dur != nil {
		return svc.dur.Degraded()
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the real main; it returns the process exit code so tests can
// pin the exit-code contract without spawning processes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gname = fs.String("graph", "regular", "ring|regular|gnp|tree")
		n     = fs.Int("n", 256, "node count")
		deg   = fs.Int("deg", 8, "degree for regular")
		p     = fs.Float64("p", 0.05, "edge probability for gnp")
		seed  = fs.Int64("seed", 1, "generator + list seed")

		kappa  = fs.Float64("kappa", 5.0, "square-sum slack of the generated lists")
		space  = fs.Int("space", 4096, "color space size, at most 16777216")
		verify = fs.Bool("verify-every-batch", false, "full-graph CheckOLDC after every batch")

		addr   = fs.String("addr", "", "serve the HTTP API on this address")
		script = fs.String("script", "", "apply one JSON mutation batch per line from this file ('-' = stdin), then exit unless -addr is set")

		dataDir   = fs.String("data", "", "durable mode: keep a WAL+snapshot store in this directory and restore from it on restart")
		snapEvery = fs.Int("snapshot-every", 64, "durable mode: compact the WAL into a snapshot every this many batches")
		walSync   = fs.Int("wal-sync", 1, "durable mode: fsync the WAL every this many batches (1 = every batch)")

		maxBatch     = fs.Int("max-batch", 4096, "reject /batch requests with more than this many mutations (HTTP 413)")
		readTimeout  = fs.Duration("read-timeout", 10*time.Second, "HTTP server read timeout")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" && *script == "" {
		fmt.Fprintln(stderr, "ldc-serve: nothing to do: pass -addr and/or -script")
		return 2
	}

	g, err := buildGraph(*gname, *n, *deg, *p, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "ldc-serve: %v\n", err)
		return 2
	}
	if *maxBatch < 1 {
		fmt.Fprintln(stderr, "ldc-serve: -max-batch must be at least 1")
		return 2
	}
	if *space > coloring.MaxListSpace {
		fmt.Fprintf(stderr, "ldc-serve: -space must be at most %d\n", coloring.MaxListSpace)
		return 2
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Kappa: *kappa, SpaceSize: *space, Seed: *seed,
		VerifyEveryBatch: *verify, Metrics: reg,
	}
	svc := &service{maxBatch: *maxBatch}
	if *dataDir != "" {
		// The graph flags only matter on the store's first boot; a reopen
		// restores the graph from the snapshot and replays the WAL.
		d, err := serve.OpenDurable(g, cfg, *dataDir, serve.DurableOptions{
			SnapshotEvery: *snapEvery, SyncEvery: *walSync,
		})
		if err != nil {
			fmt.Fprintf(stderr, "ldc-serve: open durable store: %v\n", err)
			return 1
		}
		defer d.Close()
		svc.srv, svc.dur = d.Server(), d
		fmt.Fprintf(stderr, "ldc-serve: durable store %s generation=%d n=%d batches=%d\n",
			*dataDir, d.Generation(), d.Server().N(), d.Server().Batches())
		if derr := d.Degraded(); derr != nil {
			fmt.Fprintf(stderr, "ldc-serve: store DEGRADED, serving reads only: %v\n", derr)
		}
	} else {
		s, err := serve.New(g, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "ldc-serve: initial solve: %v\n", err)
			return 1
		}
		svc.srv = s
		fmt.Fprintf(stderr, "ldc-serve: graph=%s n=%d m=%d Δ=%d colored\n", *gname, g.N(), g.M(), g.MaxDegree())
	}

	if *script != "" {
		r := os.Stdin
		if *script != "-" {
			f, err := os.Open(*script)
			if err != nil {
				fmt.Fprintf(stderr, "ldc-serve: %v\n", err)
				return 2
			}
			defer f.Close()
			r = f
		}
		if code := runScript(svc, r, stdout, stderr); code != 0 {
			return code
		}
	}

	if *addr != "" {
		fmt.Fprintf(stderr, "ldc-serve: listening on %s\n", *addr)
		hs := &http.Server{
			Addr:         *addr,
			Handler:      newMux(svc, reg),
			ReadTimeout:  *readTimeout,
			WriteTimeout: *writeTimeout,
		}
		if err := hs.ListenAndServe(); err != nil {
			fmt.Fprintf(stderr, "ldc-serve: %v\n", err)
			return 1
		}
	}
	return 0
}

// runScript applies one JSON batch per line, emitting one BatchReport per
// line. The first malformed line or failed batch stops the run. In
// durable mode every batch goes through the WAL, so a crash mid-script
// resumes exactly after the last applied line.
func runScript(svc *service, r io.Reader, stdout, stderr io.Writer) int {
	enc := json.NewEncoder(stdout)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var batch []serve.Mutation
		if err := json.Unmarshal(raw, &batch); err != nil {
			fmt.Fprintf(stderr, "ldc-serve: script line %d: %v\n", line, err)
			return 2
		}
		rep, err := svc.apply(batch)
		if err != nil {
			fmt.Fprintf(stderr, "ldc-serve: script line %d: %v\n", line, err)
			return 1
		}
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "ldc-serve: %v\n", err)
			return 1
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "ldc-serve: script: %v\n", err)
		return 2
	}
	return 0
}

// newMux wires the HTTP API onto the service. Factored out of run so the
// e2e tests can mount it on an httptest server. Reads always work;
// mutations are bounded by -max-batch (413 past it) and refused with 503
// while the durable store is degraded.
func newMux(svc *service, reg *obs.Registry) *http.ServeMux {
	s := svc.srv
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := svc.degraded(); err != nil {
			http.Error(w, fmt.Sprintf("degraded: %v", err), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := reg.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/color", func(w http.ResponseWriter, r *http.Request) {
		v, err := strconv.Atoi(r.URL.Query().Get("v"))
		if err != nil {
			http.Error(w, "missing or malformed ?v=", http.StatusBadRequest)
			return
		}
		c, err := s.Color(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]int{"v": v, "color": c})
	})
	mux.HandleFunc("/coloring", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"n": s.N(), "batches": s.Batches(), "coloring": s.Snapshot(),
		})
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a JSON mutation batch", http.StatusMethodNotAllowed)
			return
		}
		if err := svc.degraded(); err != nil {
			writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
			return
		}
		// Bound the body before decoding: ~64 bytes covers any single
		// mutation's JSON with generous whitespace slack.
		r.Body = http.MaxBytesReader(w, r.Body, int64(svc.maxBatch)*64+4096)
		var batch []serve.Mutation
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSONStatus(w, http.StatusRequestEntityTooLarge,
					map[string]any{"error": fmt.Sprintf("request body exceeds %d bytes (-max-batch %d)", tooBig.Limit, svc.maxBatch)})
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(batch) > svc.maxBatch {
			writeJSONStatus(w, http.StatusRequestEntityTooLarge,
				map[string]any{"error": fmt.Sprintf("batch of %d mutations exceeds -max-batch %d", len(batch), svc.maxBatch)})
			return
		}
		rep, err := svc.apply(batch)
		if err != nil {
			if errors.Is(err, serve.ErrDegraded) {
				writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
				return
			}
			// The report is still returned: earlier mutations of the batch
			// were applied and repaired (each mutation is atomic).
			writeJSONStatus(w, http.StatusUnprocessableEntity, map[string]any{"error": err.Error(), "report": rep})
			return
		}
		writeJSON(w, rep)
	})
	return mux
}

// writeJSONStatus writes v as JSON under a non-200 status.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func buildGraph(name string, n, deg int, p float64, seed int64) (*graph.Graph, error) {
	switch name {
	case "ring":
		return graph.Ring(n), nil
	case "regular":
		if n*deg%2 != 0 {
			n++
		}
		return graph.RandomRegular(n, deg, seed), nil
	case "gnp":
		return graph.GNP(n, p, seed), nil
	case "tree":
		return graph.RandomTree(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q (want ring|regular|gnp|tree)", name)
	}
}
