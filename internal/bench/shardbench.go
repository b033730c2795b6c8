package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/baseline"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/sim"
)

// ShardBenchEntry is one point on the shard scaling curve: the same fixed
// graph and flood workload routed through S shards.
type ShardBenchEntry struct {
	Shards         int     `json:"shards"`
	GhostNodes     int64   `json:"ghost_nodes"`
	BoundaryEdges  int64   `json:"boundary_edges"`
	NsPerRound     float64 `json:"ns_per_round"`
	WiresPerSec    float64 `json:"wires_per_sec"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
}

// ShardCurve describes the fixed graph the scaling entries share.
type ShardCurve struct {
	N             int               `json:"n"`
	M             int64             `json:"m"`
	WiresPerRound int64             `json:"wires_per_round"`
	Entries       []ShardBenchEntry `json:"entries"`
}

// ShardBigRun records the large streamed power-law solve: a graph
// materialized straight from its edge stream into one flat adjacency,
// colored with DegreeLuby on S workers, and checkable end-to-end with
// ldc-verify.
type ShardBigRun struct {
	N              int     `json:"n"`
	M              int64   `json:"m"`
	MaxDegree      int     `json:"max_degree"`
	Shards         int     `json:"shards"`
	Seed           int64   `json:"seed"`
	Rounds         int     `json:"rounds"`
	Messages       int64   `json:"messages"`
	Colors         int     `json:"colors"`
	SolveSeconds   float64 `json:"solve_seconds"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	GhostNodes     int64   `json:"ghost_nodes"`
	BoundaryEdges  int64   `json:"boundary_edges"`
}

// ShardBenchReport is the machine-readable BENCH_shard.json payload.
type ShardBenchReport struct {
	Schema string      `json:"schema"`
	Date   string      `json:"date"`
	GoOS   string      `json:"goos"`
	GoArch string      `json:"goarch"`
	CPUs   int         `json:"cpus"`
	Curve  ShardCurve  `json:"curve"`
	BigRun ShardBigRun `json:"big_run"`
}

// WriteJSON writes the report to path, or to stdout when path is "-".
func (rep ShardBenchReport) WriteJSON(path string) error { return writeBenchJSON(path, rep) }

// Shard bench configuration. The curve graph is uniform GNP with average
// degree well above the largest shard count: splitting a broadcast's sorted
// neighbor list into per-shard runs costs one queue block per destination
// shard, so deg ≫ S keeps that overhead amortized while the delivery
// scatter — the cost sharding exists to confine — shrinks by 1/S. The full
// size is chosen so the one-shard inbox arena (~600 MB) thrashes a ~100 MB
// L3 while four shards' slices approach it.
const (
	shardCurveN       = 262_144
	shardCurveDeg     = 96.0
	shardCurveSeed    = 7
	shardBigN         = 1_200_000
	shardBigK         = 3
	shardBigSeed      = 11
	shardBigShards    = 8
	shardLubySeed     = 5
	shardWarmupRounds = 2
)

var shardCurveShards = []int{1, 2, 4, 8}

// RunShardBench runs the shard scaling curve and the large streamed
// power-law solve. When solveOut is non-empty the big run's instance and
// coloring are written there as an ldc-verify document. Quick mode shrinks
// both parts to CI-smoke size.
func RunShardBench(quick bool, solveOut string) (ShardBenchReport, error) {
	rep := ShardBenchReport{
		Schema: "ldc-shard-bench/v1",
		Date:   time.Now().UTC().Format("2006-01-02"),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}

	curveN, curveDeg := shardCurveN, shardCurveDeg
	counts := shardCurveShards
	reps, timed := 3, 5
	if quick {
		curveN, curveDeg = 2048, 16
		counts = []int{1, 2, 4}
		reps, timed = 2, 3
	}
	g, err := graph.Materialize(graph.StreamGNP(curveN, curveDeg/float64(curveN), shardCurveSeed))
	if err != nil {
		return rep, fmt.Errorf("shardbench: curve graph: %w", err)
	}

	// The curve isolates routing throughput, so keep the collector out of
	// the timed windows: a forced GC before each repetition plus a higher
	// GC target means no cycle lands mid-measurement on one config and not
	// another.
	oldGC := debug.SetGCPercent(300)
	defer debug.SetGCPercent(oldGC)

	rep.Curve = ShardCurve{N: curveN, M: int64(g.M())}
	for _, s := range counts {
		eng := sim.NewEngineWith(g, sim.Options{Workers: s})
		a := &benchFlood{min: make([]int64, curveN)}
		for v := range a.min {
			a.min[v] = int64(v)
		}
		if _, err := eng.Run(&roundBudget{Algorithm: a, rounds: shardWarmupRounds}, shardWarmupRounds+1); err != nil {
			return rep, fmt.Errorf("shardbench: warmup S=%d: %w", s, err)
		}
		best := 0.0
		var bestNs float64
		for r := 0; r < reps; r++ {
			runtime.GC()
			start := time.Now()
			st, err := eng.Run(&roundBudget{Algorithm: a, rounds: timed}, timed+1)
			if err != nil {
				return rep, fmt.Errorf("shardbench: timed S=%d: %w", s, err)
			}
			el := time.Since(start)
			if wps := float64(st.Messages) / el.Seconds(); wps > best {
				best = wps
				bestNs = float64(el.Nanoseconds()) / float64(timed)
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Curve.WiresPerRound = 2 * rep.Curve.M
		ghosts, boundary := eng.Census()
		rep.Curve.Entries = append(rep.Curve.Entries, ShardBenchEntry{
			Shards:         s,
			GhostNodes:     ghosts,
			BoundaryEdges:  boundary,
			NsPerRound:     bestNs,
			WiresPerSec:    best,
			HeapInuseBytes: ms.HeapInuse,
		})
	}

	big, err := runShardBigRun(quick, solveOut)
	if err != nil {
		return rep, err
	}
	rep.BigRun = big
	return rep, nil
}

// runShardBigRun materializes a streamed power-law graph too large to
// route comfortably on one worker, colors it with DegreeLuby, validates
// the coloring, and optionally dumps the instance+coloring as an
// ldc-verify document.
func runShardBigRun(quick bool, solveOut string) (ShardBigRun, error) {
	n, k, s := shardBigN, shardBigK, shardBigShards
	if quick {
		n, k, s = 20_000, 3, 4
	}
	es := graph.StreamPreferentialAttachment(n, k, shardBigSeed)
	g, err := graph.Materialize(es)
	if err != nil {
		return ShardBigRun{}, fmt.Errorf("shardbench: big run graph: %w", err)
	}
	eng := sim.NewEngineWith(g, sim.Options{Workers: s})
	start := time.Now()
	phi, stats, err := baseline.DegreeLuby(eng, g, shardLubySeed)
	if err != nil {
		return ShardBigRun{}, fmt.Errorf("shardbench: big run solve: %w", err)
	}
	solve := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ghosts, boundary := eng.Census()
	big := ShardBigRun{
		N:              n,
		M:              int64(g.M()),
		MaxDegree:      g.MaxDegree(),
		Shards:         s,
		Seed:           shardBigSeed,
		Rounds:         stats.Rounds,
		Messages:       stats.Messages,
		Colors:         coloring.CountColors(phi),
		SolveSeconds:   solve.Seconds(),
		HeapInuseBytes: ms.HeapInuse,
		GhostNodes:     ghosts,
		BoundaryEdges:  boundary,
	}
	if solveOut != "" {
		if err := writeShardSolution(solveOut, es, g.MaxDegree()+1, phi); err != nil {
			return big, err
		}
	}
	return big, nil
}

// writeShardSolution dumps a solved instance as a self-contained ldc-verify
// document (variant "proper"): the edges come from re-streaming the same
// deterministic edge stream the graph was materialized from.
func writeShardSolution(path string, es graph.EdgeStream, space int, phi coloring.Assignment) error {
	doc := struct {
		N        int      `json:"n"`
		Edges    [][2]int `json:"edges"`
		Space    int      `json:"space"`
		Coloring []int    `json:"coloring"`
		Variant  string   `json:"variant"`
	}{N: es.N(), Space: space, Coloring: phi, Variant: "proper"}
	doc.Edges = make([][2]int, 0, es.N())
	if err := es.ForEachEdge(func(u, v int) error {
		doc.Edges = append(doc.Edges, [2]int{u, v})
		return nil
	}); err != nil {
		return fmt.Errorf("bench: re-stream solution edges: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: solution file: %w", err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		return fmt.Errorf("bench: encode solution: %w", err)
	}
	return nil
}
