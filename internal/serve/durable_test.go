package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/obs"
)

// applyBoth drives a durable store and an in-memory reference server
// through the same batch and requires identical outcomes. The reference
// is the determinism oracle: whatever the durable path persists must be
// exactly what a never-crashed server would hold.
func applyBoth(t *testing.T, d *Durable, ref *Server, batch []Mutation) {
	t.Helper()
	repD, errD := d.Apply(batch)
	repR, errR := ref.Apply(batch)
	if (errD == nil) != (errR == nil) {
		t.Fatalf("durable err %v, reference err %v", errD, errR)
	}
	if !reflect.DeepEqual(repD, repR) {
		t.Fatalf("batch reports diverge:\n durable %+v\n     ref %+v", repD, repR)
	}
}

// requireSameState asserts the full client-visible and replay-relevant
// state of two servers matches bit for bit.
func requireSameState(t *testing.T, got, want *Server) {
	t.Helper()
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatal("colorings diverge")
	}
	_, lg, rg := got.Instance()
	_, lw, rw := want.Instance()
	if !reflect.DeepEqual(lg, lw) {
		t.Fatal("lists diverge")
	}
	if !reflect.DeepEqual(rg, rw) {
		t.Fatal("residuals diverge")
	}
	if got.Batches() != want.Batches() {
		t.Fatalf("batch counters diverge: %d vs %d", got.Batches(), want.Batches())
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", got.stats, want.stats)
	}
}

// TestStateSnapshotRoundTrip pins the ldc-snap/v1 contract: EncodeState →
// FromState reproduces the server exactly, and the restored server keeps
// evolving identically under further mutations.
func TestStateSnapshotRoundTrip(t *testing.T) {
	g := graph.RandomRegular(48, 6, 3)
	cfg := Config{Seed: 21}
	a, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 6; i++ {
		o, _, _ := a.Instance()
		if _, err := a.Apply(genBatch(rng, o.Graph(), 1+rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	b, err := FromState(a.EncodeState(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, b, a)
	for i := 0; i < 4; i++ {
		o, _, _ := a.Instance()
		batch := genBatch(rng, o.Graph(), 1+rng.Intn(4))
		if _, err := a.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, b, a)
}

// TestStateImageDigest pins the ldc-snap/v1 bytes EncodeState writes for a
// fixed server after eight churn batches, list top-ups included. The image
// is an on-disk format (docs/RECOVERY.md): if these bytes move, a store
// written before the change no longer reopens. The fingerprint's defect
// range and repair budgets are fixed values kept in the image, so this
// digest also shows that they keep their bytes.
func TestStateImageDigest(t *testing.T) {
	const want = "8da143badedf7eac"
	s, err := New(graph.RandomRegular(48, 6, 3), Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 8; i++ {
		o, _, _ := s.Instance()
		if _, err := s.Apply(genBatch(rng, o.Graph(), 4+rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	topups := 0
	for _, k := range s.topups {
		topups += k
	}
	if topups == 0 {
		t.Fatal("no batch topped up a list; the image would not cover top-ups")
	}
	sum := sha256.Sum256(s.EncodeState())
	if got := hex.EncodeToString(sum[:])[:16]; got != want {
		t.Errorf("ldc-snap/v1 image digest %s, want %s", got, want)
	}
}

// TestStateDecodeRejectsDamage pins fail-closed snapshot decoding: config
// mismatches and bit flips are typed *CorruptSnapshotError and never
// panic.
func TestStateDecodeRejectsDamage(t *testing.T) {
	g := graph.RandomRegular(24, 4, 5)
	cfg := Config{Seed: 3}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := s.EncodeState()

	var snapErr *CorruptSnapshotError
	if _, err := FromState(img, Config{Seed: 4}); !errors.As(err, &snapErr) {
		t.Fatalf("config mismatch: got %v, want *CorruptSnapshotError", err)
	}
	if _, err := FromState(img, Config{Seed: 3, SpaceSize: 128}); !errors.As(err, &snapErr) {
		t.Fatalf("space mismatch: got %v, want *CorruptSnapshotError", err)
	}

	for i := 0; i < len(img); i += 3 {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x10
		srv, err := FromState(bad, cfg)
		if err == nil {
			// CRC collisions are impossible under a single flipped bit, so
			// a successful decode means the flip landed in a section the
			// CRC covers — which it always does. Decoding must fail.
			t.Fatalf("byte %d: damaged image decoded (n=%d)", i, srv.o.N())
		}
		if !errors.As(err, &snapErr) {
			t.Fatalf("byte %d: %v is not *CorruptSnapshotError", i, err)
		}
	}
}

// TestWALAppendReplay pins the log round trip, including empty batches
// and fsync batching cadence.
func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := newWALWriter(path, int64(len(WALMagic)), 2)
	if err != nil {
		t.Fatal(err)
	}
	script := [][]Mutation{
		{{Op: OpAddEdge, U: 1, V: 2}, {Op: OpAddNode}},
		{},
		{{Op: OpRemoveNode, U: 7}},
	}
	synced := 0
	for _, b := range script {
		_, s, err := w.append(b)
		if err != nil {
			t.Fatal(err)
		}
		if s {
			synced++
		}
	}
	if synced != 1 { // SyncEvery=2: fsync fired on the second record only
		t.Fatalf("synced %d times, want 1", synced)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, validLen, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if validLen != st.Size() {
		t.Fatalf("validLen %d != file size %d", validLen, st.Size())
	}
	if len(got) != len(script) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(script))
	}
	for i := range script {
		if len(got[i]) != len(script[i]) {
			t.Fatalf("batch %d: %d mutations, want %d", i, len(got[i]), len(script[i]))
		}
		for j := range script[i] {
			if got[i][j] != script[i][j] {
				t.Fatalf("batch %d mutation %d: %+v != %+v", i, j, got[i][j], script[i][j])
			}
		}
	}
}

// TestWALTornTail pins the torn-tail rule: truncating the file anywhere
// inside the final record replays the earlier batches cleanly, and a
// writer reopened at validLen overwrites the torn bytes.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := newWALWriter(path, int64(len(WALMagic)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := w.append([]Mutation{{Op: OpAddEdge, U: i, V: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frame headers to the start of the third record.
	twoLen := int64(len(WALMagic))
	for i := 0; i < 2; i++ {
		twoLen += 8 + int64(binary.LittleEndian.Uint32(data[twoLen:]))
	}
	full := int64(len(data))
	for _, cut := range []int64{twoLen + 1, twoLen + 7, twoLen + 9, full - 1} {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, validLen, err := replayWAL(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 2 || validLen != twoLen {
			t.Fatalf("cut %d: %d batches, validLen %d (want 2, %d)", cut, len(got), validLen, twoLen)
		}
		// A continuing writer truncates the tail and appends cleanly.
		w2, err := newWALWriter(torn, validLen, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w2.append([]Mutation{{Op: OpAddNode}}); err != nil {
			t.Fatal(err)
		}
		if err := w2.close(); err != nil {
			t.Fatal(err)
		}
		got, _, err = replayWAL(torn)
		if err != nil || len(got) != 3 {
			t.Fatalf("cut %d after repair: %d batches, err %v", cut, len(got), err)
		}
		if got[2][0].Op != OpAddNode {
			t.Fatalf("cut %d: repaired tail holds %+v", cut, got[2][0])
		}
	}
}

// TestWALMidFileCorruption pins the corruption rule: damage with intact
// records after it is a typed *CorruptWALError carrying the intact
// prefix, not a silent truncation.
func TestWALMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := newWALWriter(path, int64(len(WALMagic)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := w.append([]Mutation{{Op: OpAddEdge, U: i, V: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, oneLen, err := replayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = oneLen
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the second record's payload: skip the first record, then the
	// second's 8-byte frame header.
	pos := int64(len(WALMagic))
	firstLen := int64(binary.LittleEndian.Uint32(data[pos:]))
	off := pos + 8 + firstLen + 8 + 2
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, validLen, err := replayWAL(path)
	var walErr *CorruptWALError
	if !errors.As(err, &walErr) {
		t.Fatalf("got %v, want *CorruptWALError", err)
	}
	if walErr.Offset != pos+8+firstLen {
		t.Fatalf("damage reported at %d, want %d", walErr.Offset, pos+8+firstLen)
	}
	if len(got) != 1 || validLen != pos+8+firstLen {
		t.Fatalf("intact prefix: %d batches, validLen %d", len(got), validLen)
	}
}

// TestDurableCrashRecovery is the SIGKILL-style acceptance test: a store
// abandoned mid-churn (never closed, WAL fsynced per record) reopens to
// the exact state of an uninterrupted reference server, across snapshot
// compactions, and keeps evolving identically afterwards.
func TestDurableCrashRecovery(t *testing.T) {
	// Servers take ownership of their graph, so each gets its own copy.
	mkGraph := func() *graph.Graph { return graph.RandomRegular(48, 6, 3) }
	cfg := Config{Seed: 21}
	dir := t.TempDir()
	opts := DurableOptions{SnapshotEvery: 4}
	d, err := OpenDurable(mkGraph(), cfg, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(mkGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		o, _, _ := ref.Instance()
		applyBoth(t, d, ref, genBatch(rng, o.Graph(), 1+rng.Intn(4)))
	}
	if gen := d.Generation(); gen != 2 { // 10 batches / SnapshotEvery 4
		t.Fatalf("generation %d after 10 batches, want 2", gen)
	}
	// Crash: abandon d without Close. Every record was fsynced.
	reg := obs.NewRegistry()
	cfg2 := cfg
	cfg2.Metrics = reg
	d2, err := OpenDurable(nil, cfg2, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Degraded() != nil {
		t.Fatalf("recovered store degraded: %v", d2.Degraded())
	}
	requireSameState(t, d2.Server(), ref)
	if got := reg.Snapshot().Counters[obs.MetricWALReplayed]; got != 2 {
		t.Fatalf("replayed %d batches, want 2 (gen 2 holds batches 9-10)", got)
	}
	// The recovered store continues bit-identically.
	for i := 0; i < 5; i++ {
		o, _, _ := ref.Instance()
		applyBoth(t, d2, ref, genBatch(rng, o.Graph(), 1+rng.Intn(4)))
	}
	requireSameState(t, d2.Server(), ref)
	// And survives a second crash/reopen at the new frontier.
	d3, err := OpenDurable(nil, cfg, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d3.Server(), ref)
}

// TestDurableTornTailRecovery pins that a torn final WAL record — the
// residue of a crash mid-append — is trimmed on reopen and the store
// resumes writable at the last durable batch.
func TestDurableTornTailRecovery(t *testing.T) {
	mkGraph := func() *graph.Graph { return graph.RandomRegular(32, 4, 7) }
	cfg := Config{Seed: 5}
	dir := t.TempDir()
	d, err := OpenDurable(mkGraph(), cfg, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(mkGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3; i++ {
		o, _, _ := ref.Instance()
		applyBoth(t, d, ref, genBatch(rng, o.Graph(), 2))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a record frame claiming 500 bytes with
	// only 10 present.
	f, err := os.OpenFile(filepath.Join(dir, "wal-000000.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 18)
	binary.LittleEndian.PutUint32(torn, 500)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenDurable(nil, cfg, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Degraded() != nil {
		t.Fatalf("torn tail degraded the store: %v", d2.Degraded())
	}
	requireSameState(t, d2.Server(), ref)
	o, _, _ := ref.Instance()
	applyBoth(t, d2, ref, genBatch(rng, o.Graph(), 2))
	d3, err := OpenDurable(nil, cfg, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d3.Server(), ref)
}

// TestDurableMidWALCorruptionDegrades pins degraded read-only mode:
// interior WAL damage reopens serving the pre-damage state, answers
// reads, and rejects mutations with ErrDegraded.
func TestDurableMidWALCorruptionDegrades(t *testing.T) {
	mkGraph := func() *graph.Graph { return graph.RandomRegular(32, 4, 7) }
	cfg := Config{Seed: 5}
	dir := t.TempDir()
	d, err := OpenDurable(mkGraph(), cfg, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(mkGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var first []Mutation
	for i := 0; i < 3; i++ {
		o, _, _ := ref.Instance()
		batch := genBatch(rng, o.Graph(), 2)
		if i == 0 {
			first = batch
		}
		if _, err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pos := int64(len(WALMagic))
	firstLen := int64(binary.LittleEndian.Uint32(data[pos:]))
	data[pos+8+firstLen+8+1] ^= 0x40 // second record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg2 := cfg
	cfg2.Metrics = reg
	d2, err := OpenDurable(nil, cfg2, dir, DurableOptions{})
	if err != nil {
		t.Fatalf("interior corruption must degrade, not fail: %v", err)
	}
	var walErr *CorruptWALError
	if derr := d2.Degraded(); !errors.As(derr, &walErr) {
		t.Fatalf("degraded cause %v, want *CorruptWALError", derr)
	}
	if _, err := d2.Apply([]Mutation{{Op: OpAddNode}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation on degraded store: %v, want ErrDegraded", err)
	}
	if reg.Snapshot().Gauges[obs.MetricServeDegraded] != 1 {
		t.Fatal("degraded gauge not set")
	}
	// The served state is exactly the pre-damage prefix: batch 1 only.
	want, err := New(mkGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.Apply(first); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, d2.Server(), want)
	if _, err := d2.Server().Color(0); err != nil {
		t.Fatalf("read on degraded store: %v", err)
	}
}

// TestDurableSnapshotFallback pins the previous-generation chain: when
// the newest snapshot is damaged, the store rebuilds it from the prior
// snapshot plus that generation's complete WAL, heals the image on disk,
// and continues read-write with no history lost.
func TestDurableSnapshotFallback(t *testing.T) {
	mkGraph := func() *graph.Graph { return graph.RandomRegular(32, 4, 7) }
	cfg := Config{Seed: 13}
	dir := t.TempDir()
	opts := DurableOptions{SnapshotEvery: 3}
	d, err := OpenDurable(mkGraph(), cfg, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(mkGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 4; i++ { // compacts to generation 1 after batch 3
		o, _, _ := ref.Instance()
		applyBoth(t, d, ref, genBatch(rng, o.Graph(), 2))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if gen := d.Generation(); gen != 1 {
		t.Fatalf("generation %d, want 1", gen)
	}
	snap1 := filepath.Join(dir, "snap-000001")
	img, err := os.ReadFile(snap1)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(snap1, img, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(nil, cfg, dir, opts)
	if err != nil {
		t.Fatalf("fallback open failed: %v", err)
	}
	if d2.Degraded() != nil {
		t.Fatalf("fallback degraded the store: %v", d2.Degraded())
	}
	requireSameState(t, d2.Server(), ref)
	// The damaged image was healed in place.
	healed, err := os.ReadFile(snap1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromState(healed, cfg); err != nil {
		t.Fatalf("snapshot not healed: %v", err)
	}
	// Still writable.
	o, _, _ := ref.Instance()
	applyBoth(t, d2, ref, genBatch(rng, o.Graph(), 2))
}

// TestDurableConfigMismatch pins the fingerprint check: reopening a store
// under different deterministic parameters is an error, not a silent
// divergence.
func TestDurableConfigMismatch(t *testing.T) {
	g := graph.RandomRegular(24, 4, 7)
	dir := t.TempDir()
	d, err := OpenDurable(g, Config{Seed: 1}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var snapErr *CorruptSnapshotError
	if _, err := OpenDurable(nil, Config{Seed: 2}, dir, DurableOptions{}); !errors.As(err, &snapErr) {
		t.Fatalf("reopen with different seed: %v, want *CorruptSnapshotError", err)
	}
}

// TestDurablePoisonBatchDegrades pins poison handling end to end: a batch
// that panics the engine (color-space exhaustion) degrades the live store
// instead of crashing it, and — because the batch was logged first — the
// reopened store replays into the same degraded refusal rather than
// diverging from its history.
func TestDurablePoisonBatchDegrades(t *testing.T) {
	// SpaceSize 4 with κ=5: out-degree 3 needs ⌈45/9⌉=5 distinct colors,
	// which cannot exist — the top-up panics.
	g := graph.NewBuilder(5).Build()
	cfg := Config{Seed: 1, SpaceSize: 4}
	dir := t.TempDir()
	d, err := OpenDurable(g, cfg, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply([]Mutation{{Op: OpAddEdge, U: 4, V: 0}, {Op: OpAddEdge, U: 4, V: 1}}); err != nil {
		t.Fatal(err)
	}
	poison := []Mutation{{Op: OpAddEdge, U: 4, V: 2}}
	if _, err := d.Apply(poison); !errors.Is(err, ErrDegraded) {
		t.Fatalf("poison batch: %v, want ErrDegraded", err)
	}
	if d.Degraded() == nil {
		t.Fatal("store not degraded after poison batch")
	}
	if _, err := d.Server().Color(0); err != nil {
		t.Fatalf("read after poison: %v", err)
	}

	d2, err := OpenDurable(nil, cfg, dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	if d2.Degraded() == nil {
		t.Fatal("replayed poison did not degrade the reopened store")
	}
	if _, err := d2.Apply([]Mutation{{Op: OpAddNode}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation after replayed poison: %v, want ErrDegraded", err)
	}
}

// TestServeChurnUnderChaos is the satellite fault-injection property: the
// incremental service keeps its contracts while every engine it runs —
// repair re-solves included — executes under each builtin fault schedule.
// Under faults the scoped detector must still report exactly the
// full-graph violator set, and the whole pipeline must stay deterministic
// (fault models are pure functions of round and endpoints).
func TestServeChurnUnderChaos(t *testing.T) {
	mkGraph := func() *graph.Graph { return graph.RandomRegular(48, 6, 3) }
	// Builtin derives heavy-hitter schedules from the boot graph's degrees;
	// churn changes them, but the models only need (round, from, to), so
	// pinning to the boot graph keeps each schedule well-defined.
	for _, named := range chaos.Builtin(mkGraph(), 77) {
		named := named
		t.Run(named.Name, func(t *testing.T) {
			mk := func() *Server {
				s, err := New(mkGraph(), Config{Seed: 17, Faults: named.Plan.Model})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			a, b := mk(), mk()
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 8; i++ {
				o, _, _ := a.Instance()
				batch := genBatch(rng, o.Graph(), 1+rng.Intn(4))
				repA, errA := a.Apply(batch)
				repB, errB := b.Apply(batch)
				if (errA == nil) != (errB == nil) || !reflect.DeepEqual(repA, repB) {
					t.Fatalf("batch %d: faulty churn nondeterministic: %+v/%v vs %+v/%v", i, repA, errA, repB, errB)
				}
				if errA != nil {
					t.Fatalf("batch %d: %v", i, errA)
				}
				// Scoped detection stays complete under faults.
				o, lists, _ := a.Instance()
				full := coloring.OLDCViolators(o, lists, a.Snapshot())
				want := append([]int(nil), repA.Residual...)
				sort.Ints(want)
				if !reflect.DeepEqual(full, want) && !(len(full) == 0 && len(want) == 0) {
					t.Fatalf("batch %d: full violators %v != reported residual %v", i, full, want)
				}
			}
			if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
				t.Fatal("colorings diverge under identical fault schedules")
			}
		})
	}
}
