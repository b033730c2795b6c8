package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
)

// ConflictError reports duplicate or conflicting terms in one fault spec:
// the same term twice, repeated i.i.d. kinds whose probabilities would
// compose into a non-obvious effective rate, crash events claiming the
// same node or the same round, or colliding kill events. Such specs are
// almost always typos, so ParsePlan rejects them instead of
// silently composing.
type ConflictError struct {
	Spec   string // the full spec being parsed
	TermA  string // the earlier of the two clashing terms
	TermB  string // the later term
	Reason string
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("chaos: conflicting terms %q and %q in spec %q: %s", e.TermA, e.TermB, e.Spec, e.Reason)
}

// Kill is one scheduled process death at a round boundary.
type Kill struct {
	// Round is the boundary after which the process dies (the round has
	// fully executed and any chained checkpoint hook has run).
	Round int
	// Shard is the shard index for killshard terms, or -1 for a
	// whole-process kill. The engine's shards share one address space, so
	// both kinds abort the run; the distinction is recorded for reports
	// and for a future multi-process transport.
	Shard int
}

// KillError is the typed error a Plan's kill hook aborts a run with; the
// supervisor (Supervise, cmd/ldc-run) recognizes it and restarts from the
// last checkpoint, while any other error propagates.
type KillError struct {
	Round int // round boundary at which the process was killed
	Shard int // shard index, or -1 for a whole-process kill
}

// Error implements error.
func (e *KillError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("chaos: shard %d killed after round %d", e.Shard, e.Round)
	}
	return fmt.Sprintf("chaos: process killed after round %d", e.Round)
}

// Plan is a parsed fault schedule spanning both fault layers: wire-level
// faults the engine applies per message, and process-level kills a
// supervisor turns into kill/restore cycles.
type Plan struct {
	// Model composes the spec's wire-level terms (nil when the spec is
	// kills only).
	Model sim.FaultModel
	// Kills are the process-level events in spec order.
	Kills []Kill
	// Corrupting reports whether any term flips payload bits (flip terms);
	// drivers whose algorithms cannot decode damaged payloads reject such
	// plans up front instead of panicking mid-run.
	Corrupting bool
}

// KillHook returns the between-rounds hook implementing the plan's kill
// schedule, or nil when there are no kills. The hook is stateful on
// purpose: each kill fires exactly once, so a supervisor resuming from a
// checkpoint replays the killed round without dying at it forever. A new
// hook (fresh state) is needed per supervised run, not per attempt —
// attempts share the hook so fired kills stay fired.
func (p *Plan) KillHook() sim.RoundHook {
	if len(p.Kills) == 0 {
		return nil
	}
	fired := make([]bool, len(p.Kills))
	return func(round int, _ *sim.Stats) error {
		for i, k := range p.Kills {
			if !fired[i] && k.Round == round {
				fired[i] = true
				return &KillError{Round: round, Shard: k.Shard}
			}
		}
		return nil
	}
}

// ParsePlan parses a compact fault spec string. Terms are joined with '+'
// (wire-level terms are composed in order); each term is one of
//
//	drop:P          i.i.d. drops with probability P
//	flip:P          i.i.d. bit-flip corruption with probability P
//	crash:V@R       node V silent from round R onward
//	crash:V@R-U     node V silent in rounds [R, U) (crash-recover)
//	heavy:K:P       the K heaviest-degree senders drop each wire w.p. P
//	kill:R          whole process dies after round R
//	killshard:S@R   shard S dies after round R
//
// e.g. "drop:0.05+flip:0.01", "crash:3@1+heavy:4:0.5" or "kill:3+drop:0.05".
// The graph provides degrees for heavy; seed drives every randomized term.
// Duplicate or conflicting terms — the same term twice, repeated
// drop/flip/heavy kinds, crash events sharing a node or a start round,
// colliding kills — fail with a typed *ConflictError. Wire-term seeds are
// assigned by term position, so appending a kill term last does not
// reshuffle the wire fault pattern of the other terms.
func ParsePlan(spec string, seed uint64, g *graph.Graph) (*Plan, error) {
	plan := &Plan{}
	var models []sim.FaultModel
	seen := map[string]string{} // conflict key -> term that claimed it
	conflict := func(key, term, reason string) error {
		if prev, ok := seen[key]; ok {
			return &ConflictError{Spec: spec, TermA: prev, TermB: term, Reason: reason}
		}
		seen[key] = term
		return nil
	}
	for i, term := range strings.Split(spec, "+") {
		term = strings.TrimSpace(term)
		if term == "" {
			return nil, fmt.Errorf("chaos: empty term at position %d in %q", i, spec)
		}
		if err := conflict("term "+term, term, "identical term repeated"); err != nil {
			return nil, err
		}
		kind, rest, _ := strings.Cut(term, ":")
		switch kind {
		case "drop", "flip":
			p, err := parseProb(rest)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s: %w", term, err)
			}
			if err := conflict("kind "+kind, term, "repeated i.i.d. "+kind+" terms compose into a non-obvious effective rate; use a single term"); err != nil {
				return nil, err
			}
			if kind == "drop" {
				models = append(models, Drop(seed+uint64(i), p))
			} else {
				plan.Corrupting = true
				models = append(models, Flip(seed+uint64(i), p))
			}
		case "crash":
			node, when, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("chaos: %s: want crash:V@R or crash:V@R-U", term)
			}
			v, err := strconv.Atoi(node)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("chaos: %s: bad node %q", term, node)
			}
			from, untilStr, recover := strings.Cut(when, "-")
			r, err := strconv.Atoi(from)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("chaos: %s: bad round %q", term, from)
			}
			until := -1
			if recover {
				if until, err = strconv.Atoi(untilStr); err != nil || until <= r {
					return nil, fmt.Errorf("chaos: %s: bad recovery round %q", term, untilStr)
				}
			}
			if err := conflict("crash node "+node, term, "node already has a crash schedule; merge the windows"); err != nil {
				return nil, err
			}
			if err := conflict("crash round "+from, term, "another crash event already starts at this round"); err != nil {
				return nil, err
			}
			models = append(models, CrashWindow(v, r, until))
		case "heavy":
			kStr, pStr, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, fmt.Errorf("chaos: %s: want heavy:K:P", term)
			}
			k, err := strconv.Atoi(kStr)
			if err != nil || k <= 0 {
				return nil, fmt.Errorf("chaos: %s: bad count %q", term, kStr)
			}
			p, err := parseProb(pStr)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s: %w", term, err)
			}
			if g == nil {
				return nil, fmt.Errorf("chaos: %s needs a graph for degrees", term)
			}
			if err := conflict("kind heavy", term, "repeated heavy terms target overlapping senders; use a single term"); err != nil {
				return nil, err
			}
			models = append(models, HeavyHitters(g, k, seed+uint64(i), p))
		case "kill":
			r, err := strconv.Atoi(rest)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("chaos: %s: bad round %q (want kill:R)", term, rest)
			}
			if err := conflict("kill round "+rest, term, "a kill is already scheduled at this round"); err != nil {
				return nil, err
			}
			plan.Kills = append(plan.Kills, Kill{Round: r, Shard: -1})
		case "killshard":
			sStr, rStr, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("chaos: %s: want killshard:S@R", term)
			}
			s, err := strconv.Atoi(sStr)
			if err != nil || s < 0 {
				return nil, fmt.Errorf("chaos: %s: bad shard %q", term, sStr)
			}
			r, err := strconv.Atoi(rStr)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("chaos: %s: bad round %q", term, rStr)
			}
			if err := conflict("kill round "+rStr, term, "a kill is already scheduled at this round"); err != nil {
				return nil, err
			}
			plan.Kills = append(plan.Kills, Kill{Round: r, Shard: s})
		default:
			return nil, fmt.Errorf("chaos: unknown fault kind %q (want drop|flip|crash|heavy|kill|killshard)", kind)
		}
	}
	if len(models) == 0 && len(plan.Kills) == 0 {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	if len(models) > 0 {
		plan.Model = Compose(models...)
	}
	return plan, nil
}

// NamedPlan pairs a recovery plan with a stable identifier and its source
// spec for benchmarks and reports.
type NamedPlan struct {
	Name string
	Spec string
	Plan *Plan
}

// BuiltinRecovery returns the standard kill/recovery plans `ldc-bench
// -suite recover` cycles through: single and repeated whole-process kills,
// a shard kill, and a kill under wire loss. Built through ParsePlan so
// the spec language itself is exercised.
func BuiltinRecovery(g *graph.Graph, seed uint64) []NamedPlan {
	specs := []struct{ name, spec string }{
		{"kill-3", "kill:3"},
		{"kill-3-9", "kill:3+kill:9"},
		{"killshard-1@4", "killshard:1@4"},
		{"kill-under-drop", "drop:0.05+kill:4"},
	}
	plans := make([]NamedPlan, 0, len(specs))
	for _, s := range specs {
		p, err := ParsePlan(s.spec, seed, g)
		if err != nil {
			panic("chaos: builtin recovery spec " + s.spec + ": " + err.Error())
		}
		plans = append(plans, NamedPlan{Name: s.name, Spec: s.spec, Plan: p})
	}
	return plans
}

// SuperviseOptions bounds a restart loop around kill-prone runs.
type SuperviseOptions struct {
	// MaxRestarts is the number of restarts allowed after the first
	// attempt (≤0 means fail on the first kill).
	MaxRestarts int
	// BaseBackoff is the delay before the first restart; it doubles after
	// every restart (exponential backoff).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled delay (0 = uncapped).
	MaxBackoff time.Duration
	// OnRestart, when set, observes each restart decision before the
	// backoff sleep.
	OnRestart func(restart int, cause *KillError, backoff time.Duration)
	// Sleep replaces time.Sleep in tests; nil uses time.Sleep.
	Sleep func(time.Duration)
}

// Supervise runs attempt (attempt number starts at 0) until it returns
// without a *KillError: nil and non-kill errors propagate immediately,
// kills restart the attempt with bounded exponential backoff until
// MaxRestarts is exhausted, at which point the last kill is returned
// wrapped. The attempt callback owns checkpoint/resume — Supervise only
// decides whether death was survivable.
func Supervise(opts SuperviseOptions, attempt func(attempt int) error) error {
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := opts.BaseBackoff
	for n := 0; ; n++ {
		err := attempt(n)
		var ke *KillError
		if err == nil || !errors.As(err, &ke) {
			return err
		}
		if n >= opts.MaxRestarts {
			return fmt.Errorf("chaos: giving up after %d restarts: %w", n, err)
		}
		if opts.OnRestart != nil {
			opts.OnRestart(n+1, ke, backoff)
		}
		if backoff > 0 {
			sleep(backoff)
		}
		backoff *= 2
		if opts.MaxBackoff > 0 && backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
}
