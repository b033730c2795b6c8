package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestParseConflicts pins the typed rejection of duplicate and
// conflicting specs: every case fails with *ConflictError.
func TestParseConflicts(t *testing.T) {
	g := star(8)
	cases := []struct {
		spec   string
		reason string
	}{
		{"drop:0.1+drop:0.1", "identical drop term repeated"},
		{"drop:0.1+drop:0.2", "two drop terms compose ambiguously"},
		{"flip:0.01+flip:0.05", "two flip terms compose ambiguously"},
		{"crash:3@2+crash:3@7", "node 3 crashed twice"},
		{"crash:3@2+crash:5@2", "two crashes starting at round 2"},
		{"heavy:2:0.5+heavy:4:0.1", "two heavy terms overlap"},
		{"kill:3+kill:3", "same kill twice"},
		{"kill:3+killshard:1@3", "kill and shard-kill at the same round"},
		{"crash:3@2-5+crash:3@6", "crash-recover then re-crash of one node"},
	}
	for _, c := range cases {
		_, err := ParsePlan(c.spec, 1, g)
		if err == nil {
			t.Errorf("ParsePlan(%q) accepted: %s", c.spec, c.reason)
			continue
		}
		var ce *ConflictError
		if !errors.As(err, &ce) {
			t.Errorf("ParsePlan(%q): error %v is not *ConflictError", c.spec, err)
		} else if ce.Spec != c.spec || ce.TermA == "" || ce.TermB == "" {
			t.Errorf("ParsePlan(%q): incomplete ConflictError %+v", c.spec, ce)
		}
	}
}

// TestParsePlan pins the kill grammar: rounds and shard indices land in
// Kills, wire terms still compose into Model, and Corrupting flags flip.
func TestParsePlan(t *testing.T) {
	g := star(8)
	p, err := ParsePlan("kill:3+killshard:1@7+drop:0.5", 9, g)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kill{{Round: 3, Shard: -1}, {Round: 7, Shard: 1}}
	if len(p.Kills) != len(want) || p.Kills[0] != want[0] || p.Kills[1] != want[1] {
		t.Errorf("kills = %+v, want %+v", p.Kills, want)
	}
	if p.Model == nil {
		t.Error("drop term did not produce a wire model")
	}
	if p.Corrupting {
		t.Error("plan without flip terms marked Corrupting")
	}

	p, err = ParsePlan("kill:0", 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != nil || len(p.Kills) != 1 {
		t.Errorf("kills-only plan = %+v", p)
	}

	if p, err = ParsePlan("flip:0.1", 9, nil); err != nil || !p.Corrupting {
		t.Errorf("flip plan: err=%v corrupting=%v, want nil/true", err, p != nil && p.Corrupting)
	}

	for _, bad := range []string{"kill:", "kill:-1", "kill:x", "killshard:1", "killshard:@3", "killshard:1@", "killshard:-1@3"} {
		if _, err := ParsePlan(bad, 9, nil); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestKillHookFiresOnce pins the resume contract: a kill aborts the run
// at its round exactly once, so the supervisor's resumed attempt replays
// that round without dying at it forever.
func TestKillHookFiresOnce(t *testing.T) {
	p, err := ParsePlan("kill:2+killshard:1@4", 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	hook := p.KillHook()
	var stats sim.Stats
	var kills []KillError
	for round := 0; round < 8; round++ {
		if err := hook(round, &stats); err != nil {
			var ke *KillError
			if !errors.As(err, &ke) {
				t.Fatalf("round %d: %v is not *KillError", round, err)
			}
			kills = append(kills, *ke)
			// Replay the round, as a resume from a boundary checkpoint does.
			if err := hook(round, &stats); err != nil {
				t.Fatalf("kill at round %d fired twice: %v", round, err)
			}
		}
	}
	want := []KillError{{Round: 2, Shard: -1}, {Round: 4, Shard: 1}}
	if len(kills) != len(want) || kills[0] != want[0] || kills[1] != want[1] {
		t.Errorf("kills = %+v, want %+v", kills, want)
	}
	if h := (&Plan{}).KillHook(); h != nil {
		t.Error("kill-free plan returned a non-nil hook")
	}
}

// TestSupervise pins the restart loop: kills retry with doubling capped
// backoff, other errors and success pass through, and the restart budget
// is enforced.
func TestSupervise(t *testing.T) {
	var slept []time.Duration
	opts := SuperviseOptions{
		MaxRestarts: 5,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	calls := 0
	err := Supervise(opts, func(attempt int) error {
		if attempt != calls {
			t.Errorf("attempt %d delivered as %d", calls, attempt)
		}
		calls++
		if attempt < 4 {
			return fmt.Errorf("run aborted: %w", &KillError{Round: attempt, Shard: -1})
		}
		return nil
	})
	if err != nil || calls != 5 {
		t.Errorf("err=%v calls=%d, want nil/5", err, calls)
	}
	wantSleep := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(wantSleep) {
		t.Fatalf("slept %v, want %v", slept, wantSleep)
	}
	for i := range slept {
		if slept[i] != wantSleep[i] {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], wantSleep[i])
		}
	}

	boom := errors.New("boom")
	calls = 0
	if err := Supervise(opts, func(int) error { calls++; return boom }); !errors.Is(err, boom) || calls != 1 {
		t.Errorf("non-kill error: err=%v calls=%d, want boom/1", err, calls)
	}

	calls = 0
	err = Supervise(SuperviseOptions{MaxRestarts: 2, Sleep: func(time.Duration) {}}, func(int) error {
		calls++
		return &KillError{Round: 1, Shard: -1}
	})
	var ke *KillError
	if !errors.As(err, &ke) || calls != 3 {
		t.Errorf("exhausted budget: err=%v calls=%d, want wrapped KillError after 3 attempts", err, calls)
	}
}

// TestBuiltinRecovery sanity-checks the standard recovery suite: unique
// names, at least one multi-kill plan, at least one shard kill, and at
// least one plan pairing a kill with wire faults.
func TestBuiltinRecovery(t *testing.T) {
	plans := BuiltinRecovery(star(16), 7)
	if len(plans) < 3 {
		t.Fatalf("only %d recovery plans", len(plans))
	}
	names := map[string]bool{}
	var multi, sharded, mixed bool
	for _, np := range plans {
		if names[np.Name] {
			t.Errorf("duplicate plan name %q", np.Name)
		}
		names[np.Name] = true
		if len(np.Plan.Kills) == 0 {
			t.Errorf("plan %q has no kills", np.Name)
		}
		if len(np.Plan.Kills) > 1 {
			multi = true
		}
		for _, k := range np.Plan.Kills {
			if k.Shard >= 0 {
				sharded = true
			}
		}
		if np.Plan.Model != nil {
			mixed = true
		}
	}
	if !multi || !sharded || !mixed {
		t.Errorf("suite coverage: multi=%v sharded=%v mixed=%v, want all true", multi, sharded, mixed)
	}
}
