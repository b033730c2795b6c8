package serve

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/oldc"
	"repro/internal/sim"
)

// SnapshotMagic tags the serve state-snapshot image format ("ldc-snap/v1",
// documented in docs/RECOVERY.md). A snapshot plus the WAL records written
// after it reconstruct a server exactly: the engine is deterministic per
// mutation sequence, so replay lands on bit-identical colorings.
const SnapshotMagic = "ldc-snap/v1"

// CorruptSnapshotError reports a state snapshot that failed structural
// decoding or semantic validation. Unwrap exposes the underlying cause
// (usually a *ckpt.CorruptError).
type CorruptSnapshotError struct {
	Path string // snapshot file, when known ("" for in-memory decodes)
	Err  error
}

// Error implements error.
func (e *CorruptSnapshotError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("serve: corrupt snapshot: %v", e.Err)
	}
	return fmt.Sprintf("serve: corrupt snapshot %s: %v", e.Path, e.Err)
}

// Unwrap exposes the underlying decode error.
func (e *CorruptSnapshotError) Unwrap() error { return e.Err }

// snapCorruptf wraps a semantic validation failure as a typed snapshot
// error.
func snapCorruptf(format string, args ...any) error {
	return &CorruptSnapshotError{Err: fmt.Errorf(format, args...)}
}

// EncodeState serializes the server's complete durable state as a framed
// ldc-snap/v1 image: the config fingerprint (the deterministic fields of
// Config — runtime observers are excluded — and the fixed defect range
// and repair budgets, which the image keeps for compatibility), the
// graph's edge set, and the per-node lists, colors, and top-up
// generations, plus the batch counter, residual set, and accumulated
// engine statistics.
func (s *Server) EncodeState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := ckpt.NewEncoder(SnapshotMagic)
	e.Uvarint(math.Float64bits(s.cfg.Kappa))
	e.Int(minDefect)
	e.Int(maxDefect)
	e.Int(s.cfg.SpaceSize)
	e.Int64(s.cfg.Seed)
	e.Int(oldc.MaxRepairs)
	e.Int(oldc.MaxSweeps)
	e.Int(s.batches)
	n := s.o.N()
	e.Int(n)
	e.Int(s.o.Graph().M())
	s.o.Graph().ForEachEdge(func(u, v int) {
		e.Int(u)
		e.Int(v)
	})
	for v := 0; v < n; v++ {
		e.Ints(s.list[v].Colors)
		e.Ints(s.list[v].Defect)
		e.Int(s.topups[v])
		e.Int(s.phi[v])
	}
	e.Ints(s.residual)
	sim.EncodeStats(e, &s.stats)
	return e.Finish()
}

// FromState reconstructs a server from an ldc-snap/v1 image produced by
// EncodeState. cfg supplies the runtime-only fields (Tracer, Metrics,
// Faults, VerifyEveryBatch); its deterministic fields must match the
// snapshot's fingerprint, since lists and top-ups generated under one
// config are meaningless under another. All structural failures are
// *ckpt.CorruptError wrapped in *CorruptSnapshotError; no input panics
// (pinned by FuzzStateDecode). No solve runs: the snapshot IS the state.
func FromState(data []byte, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	d, err := ckpt.NewDecoder(data, SnapshotMagic)
	if err != nil {
		return nil, &CorruptSnapshotError{Err: err}
	}
	kappa := math.Float64frombits(d.Uvarint())
	minDef := d.Int()
	maxDef := d.Int()
	space := d.Int()
	seed := d.Int64()
	maxRepairs := d.Int()
	maxSweeps := d.Int()
	if err := d.Err(); err != nil {
		return nil, &CorruptSnapshotError{Err: err}
	}
	if kappa != cfg.Kappa || minDef != minDefect || maxDef != maxDefect ||
		space != cfg.SpaceSize || seed != cfg.Seed || maxRepairs != oldc.MaxRepairs || maxSweeps != oldc.MaxSweeps {
		return nil, snapCorruptf("config fingerprint mismatch: snapshot (κ=%g defect=[%d,%d] space=%d seed=%d budgets=%d/%d) vs config (κ=%g defect=[%d,%d] space=%d seed=%d budgets=%d/%d)",
			kappa, minDef, maxDef, space, seed, maxRepairs, maxSweeps,
			cfg.Kappa, minDefect, maxDefect, cfg.SpaceSize, cfg.Seed, oldc.MaxRepairs, oldc.MaxSweeps)
	}
	batches := d.Int()
	n := d.Int()
	m := d.Int()
	if err := d.Err(); err != nil {
		return nil, &CorruptSnapshotError{Err: err}
	}
	// Clamp before allocating: each edge costs ≥2 bytes and each node's
	// section ≥4, so counts beyond the remaining bytes are forged.
	if batches < 0 || n < 0 || m < 0 || m > d.Remaining() || n > d.Remaining() {
		return nil, snapCorruptf("implausible counts: batches=%d n=%d m=%d", batches, n, m)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := d.Int(), d.Int()
		if d.Err() != nil {
			return nil, &CorruptSnapshotError{Err: d.Err()}
		}
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, snapCorruptf("edge %d endpoints {%d,%d} invalid for %d nodes", i, u, v, n)
		}
		b.AddEdge(u, v)
	}
	g := b.Build()
	if g.M() != m {
		return nil, snapCorruptf("edge list contains duplicates: %d unique of %d", g.M(), m)
	}
	s := &Server{
		cfg:     cfg,
		o:       graph.OrientByID(g),
		list:    make([]coloring.NodeList, n),
		init:    make([]int, n),
		topups:  make([]int, n),
		phi:     make(coloring.Assignment, n),
		batches: batches,
	}
	for v := 0; v < n; v++ {
		colors := d.Ints()
		defs := d.Ints()
		s.topups[v] = d.Int()
		s.phi[v] = d.Int()
		if err := d.Err(); err != nil {
			return nil, &CorruptSnapshotError{Err: err}
		}
		if len(colors) != len(defs) {
			return nil, snapCorruptf("node %d has %d colors but %d defects", v, len(colors), len(defs))
		}
		for j := range colors {
			if colors[j] < 0 || colors[j] >= cfg.SpaceSize || (j > 0 && colors[j] <= colors[j-1]) || defs[j] < 0 {
				return nil, snapCorruptf("node %d list is not a sorted subset of the color space with nonnegative defects", v)
			}
		}
		if s.topups[v] < 0 || s.phi[v] < coloring.Unset || s.phi[v] >= cfg.SpaceSize {
			return nil, snapCorruptf("node %d top-up generation %d or color %d out of range", v, s.topups[v], s.phi[v])
		}
		s.list[v] = coloring.NodeList{Colors: colors, Defect: defs}
		s.init[v] = v
	}
	s.residual = d.Ints()
	for _, v := range s.residual {
		if v < 0 || v >= n {
			return nil, snapCorruptf("residual node %d outside [0,%d)", v, n)
		}
	}
	stats, err := sim.DecodeStats(d)
	if err != nil {
		return nil, &CorruptSnapshotError{Err: err}
	}
	s.stats = stats
	if err := d.Done(); err != nil {
		return nil, &CorruptSnapshotError{Err: err}
	}
	return s, nil
}
