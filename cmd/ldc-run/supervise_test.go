package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runJSON executes run() with -json plus args and decodes the report.
func runJSON(t *testing.T, args ...string) (output, int) {
	t.Helper()
	var buf strings.Builder
	code := run(append(args, "-json"), &buf, io.Discard)
	var out output
	if code == 0 {
		if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
			t.Fatalf("decode run output: %v\n%s", err, buf.String())
		}
	}
	return out, code
}

var deglubyArgs = []string{"-graph", "regular", "-n", "96", "-deg", "6", "-algo", "degluby"}

// TestKillResumeMatchesUninterrupted pins the supervisor's core contract:
// a run killed mid-flight and resumed from its checkpoint produces the
// same coloring, rounds, and message totals as a run that was never
// interrupted — including the JSONL trace, byte for byte.
func TestKillResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	baseTrace := filepath.Join(dir, "base.jsonl")
	base, code := runJSON(t, append(deglubyArgs, "-trace", baseTrace)...)
	if code != 0 {
		t.Fatalf("baseline run exit %d", code)
	}

	killTrace := filepath.Join(dir, "kill.jsonl")
	killed, code := runJSON(t, append(deglubyArgs,
		"-chaos", "kill:2+kill:4", "-ckpt", filepath.Join(dir, "run.ckpt"), "-trace", killTrace)...)
	if code != 0 {
		t.Fatalf("killed run exit %d", code)
	}
	if killed.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", killed.Restarts)
	}
	if killed.Rounds != base.Rounds || killed.Messages != base.Messages || killed.TotalBits != base.TotalBits {
		t.Fatalf("killed run stats diverge: %d/%d/%d vs %d/%d/%d",
			killed.Rounds, killed.Messages, killed.TotalBits, base.Rounds, base.Messages, base.TotalBits)
	}
	for v := range base.Coloring {
		if killed.Coloring[v] != base.Coloring[v] {
			t.Fatalf("node %d colored %d after resume, %d uninterrupted", v, killed.Coloring[v], base.Coloring[v])
		}
	}
	got, err := os.ReadFile(killTrace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseTrace)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed trace is not byte-identical to the uninterrupted trace (%d vs %d bytes)", len(got), len(want))
	}
}

// TestKillShardResumeSharded runs the killshard builtin on 4 workers and
// checks the resumed coloring still matches the uninterrupted baseline
// (worker count and kills are both transparent).
func TestKillShardResumeSharded(t *testing.T) {
	base, code := runJSON(t, deglubyArgs...)
	if code != 0 {
		t.Fatalf("baseline run exit %d", code)
	}
	killed, code := runJSON(t, append(deglubyArgs,
		"-shards", "4", "-chaos", "killshard-1@4", "-ckpt", filepath.Join(t.TempDir(), "s.ckpt"))...)
	if code != 0 {
		t.Fatalf("sharded kill run exit %d", code)
	}
	if killed.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", killed.Restarts)
	}
	for v := range base.Coloring {
		if killed.Coloring[v] != base.Coloring[v] {
			t.Fatalf("node %d colored %d after shard kill, %d baseline", v, killed.Coloring[v], base.Coloring[v])
		}
	}
}

// TestCrossProcessResume simulates a real crash: the first invocation has
// no restart budget, so the kill takes the whole run down (exit 1) with a
// checkpoint left on disk; a second independent invocation pointed at the
// same -ckpt resumes it to the baseline coloring.
func TestCrossProcessResume(t *testing.T) {
	base, code := runJSON(t, deglubyArgs...)
	if code != 0 {
		t.Fatalf("baseline run exit %d", code)
	}
	ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
	if _, code := runJSON(t, append(deglubyArgs,
		"-chaos", "kill:3", "-ckpt", ckpt, "-max-restarts", "0")...); code != 1 {
		t.Fatalf("unsupervised kill exit %d, want 1", code)
	}
	resumed, code := runJSON(t, append(deglubyArgs, "-ckpt", ckpt)...)
	if code != 0 {
		t.Fatalf("resume run exit %d", code)
	}
	for v := range base.Coloring {
		if resumed.Coloring[v] != base.Coloring[v] {
			t.Fatalf("node %d colored %d after cross-process resume, %d baseline", v, resumed.Coloring[v], base.Coloring[v])
		}
	}
}

var oldcArgs = []string{"-graph", "regular", "-n", "96", "-deg", "8", "-algo", "oldc"}

// TestOldcKillResumeMatchesUninterrupted is the oldc counterpart of
// TestKillResumeMatchesUninterrupted: the two-phase solve killed
// mid-flight and resumed from its checkpoint must reproduce the
// uninterrupted run exactly — coloring, stats ledger, and the JSONL trace
// byte for byte (including the re-prepared class-selection phase events,
// which the supervisor truncates back out of the trace on resume).
func TestOldcKillResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	baseTrace := filepath.Join(dir, "base.jsonl")
	base, code := runJSON(t, append(oldcArgs, "-trace", baseTrace)...)
	if code != 0 {
		t.Fatalf("baseline run exit %d", code)
	}

	killTrace := filepath.Join(dir, "kill.jsonl")
	killed, code := runJSON(t, append(oldcArgs,
		"-chaos", "kill:2+kill:4", "-ckpt", filepath.Join(dir, "run.ckpt"), "-trace", killTrace)...)
	if code != 0 {
		t.Fatalf("killed run exit %d", code)
	}
	if killed.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", killed.Restarts)
	}
	if killed.Rounds != base.Rounds || killed.Messages != base.Messages || killed.TotalBits != base.TotalBits {
		t.Fatalf("killed run stats diverge: %d/%d/%d vs %d/%d/%d",
			killed.Rounds, killed.Messages, killed.TotalBits, base.Rounds, base.Messages, base.TotalBits)
	}
	if !killed.Valid {
		t.Fatal("killed run produced an invalid coloring")
	}
	for v := range base.Coloring {
		if killed.Coloring[v] != base.Coloring[v] {
			t.Fatalf("node %d colored %d after resume, %d uninterrupted", v, killed.Coloring[v], base.Coloring[v])
		}
	}
	got, err := os.ReadFile(killTrace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseTrace)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed trace is not byte-identical to the uninterrupted trace (%d vs %d bytes)", len(got), len(want))
	}
}

// TestOldcCrossProcessResume kills an oldc run with no restart budget and
// resumes it in a second independent invocation pointed at the same -ckpt.
func TestOldcCrossProcessResume(t *testing.T) {
	base, code := runJSON(t, oldcArgs...)
	if code != 0 {
		t.Fatalf("baseline run exit %d", code)
	}
	ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
	if _, code := runJSON(t, append(oldcArgs,
		"-chaos", "kill:3", "-ckpt", ckpt, "-max-restarts", "0")...); code != 1 {
		t.Fatalf("unsupervised kill exit %d, want 1", code)
	}
	resumed, code := runJSON(t, append(oldcArgs, "-ckpt", ckpt)...)
	if code != 0 {
		t.Fatalf("resume run exit %d", code)
	}
	if resumed.Rounds != base.Rounds || resumed.Messages != base.Messages {
		t.Fatalf("resumed stats diverge: %d/%d vs %d/%d",
			resumed.Rounds, resumed.Messages, base.Rounds, base.Messages)
	}
	for v := range base.Coloring {
		if resumed.Coloring[v] != base.Coloring[v] {
			t.Fatalf("node %d colored %d after cross-process resume, %d baseline", v, resumed.Coloring[v], base.Coloring[v])
		}
	}
}

// TestSuperviseUsageErrors pins the exit-2 contract for the flag
// combinations the supervisor refuses.
func TestSuperviseUsageErrors(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "x.ckpt")
	// A checkpointed oldc solve on 2 workers is a normal run; it needs a
	// checkpoint path of its own, since it leaves an image behind.
	t.Run("ckpt oldc with shards", func(t *testing.T) {
		args := []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc",
			"-ckpt", filepath.Join(t.TempDir(), "oldc.ckpt"), "-shards", "2"}
		if code := run(args, io.Discard, io.Discard); code != 0 {
			t.Fatalf("run(%v) = %d, want 0", args, code)
		}
	})
	cases := []struct {
		name string
		args []string
	}{
		{"kill without ckpt", append(deglubyArgs, "-chaos", "kill:3")},
		{"kill with oldc without ckpt", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc", "-chaos", "kill:3"}},
		{"kill with luby", []string{"-graph", "ring", "-n", "16", "-algo", "luby", "-chaos", "kill:3"}},
		{"ckpt with repair", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc", "-ckpt", ckpt, "-repair"}},
		{"chaos with maus21", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "maus21", "-chaos", "drop-10pct"}},
		{"flip with degluby", append(deglubyArgs, "-chaos", "flip-1pct")},
		{"storm with degluby", append(deglubyArgs, "-chaos", "storm", "-ckpt", ckpt)},
		{"ckpt with luby", []string{"-graph", "ring", "-n", "16", "-algo", "luby", "-ckpt", ckpt}},
		{"kill with stdout trace", append(deglubyArgs, "-chaos", "kill:3", "-ckpt", ckpt, "-trace", "-")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if code := run(tc.args, io.Discard, io.Discard); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", tc.args, code)
			}
		})
	}
	// A conflicting spec (duplicate kill round) fails through the chaos
	// parser's typed *ConflictError, which is a run failure, not usage.
	if code := run(append(deglubyArgs, "-chaos", "kill:3+kill:3", "-ckpt", ckpt), io.Discard, io.Discard); code != 1 {
		t.Fatalf("conflicting kill spec exit %d, want 1", code)
	}
}

// TestShardsMatchOneWorker pins that -shards only sets the engines' worker
// count: oldc solved on 2 workers, plain and checkpointed, reports the
// coloring and Stats of the -shards 1 run.
func TestShardsMatchOneWorker(t *testing.T) {
	args := []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc"}
	want, code := runJSON(t, append(args, "-shards", "1")...)
	if code != 0 {
		t.Fatalf("-shards 1 run exit %d", code)
	}
	for name, extra := range map[string][]string{
		"shards with oldc":      {"-shards", "2"},
		"ckpt oldc with shards": {"-shards", "2", "-ckpt", filepath.Join(t.TempDir(), "oldc.ckpt")},
	} {
		got, code := runJSON(t, append(args, extra...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d", name, code)
		}
		if !reflect.DeepEqual(got.Coloring, want.Coloring) || got.Rounds != want.Rounds ||
			got.Messages != want.Messages || got.TotalBits != want.TotalBits || got.MaxMsgBits != want.MaxMsgBits {
			t.Errorf("%s: output diverges from -shards 1: rounds %d/%d messages %d/%d bits %d/%d max %d/%d",
				name, got.Rounds, want.Rounds, got.Messages, want.Messages,
				got.TotalBits, want.TotalBits, got.MaxMsgBits, want.MaxMsgBits)
		}
	}
}
