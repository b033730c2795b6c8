package obs

import (
	"bytes"
	"strings"
	"testing"
)

// sampleTrace emits a small two-phase run into a JSONL sink and returns
// the bytes.
func sampleTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Start(RunInfo{Algo: "oldc", Graph: "regular", N: 4, M: 4, MaxDegree: 2, Seed: 1})
	tr.Phase("oldc/basic", Attrs{"h": 3, "gap": 0})
	tr.Round(RoundInfo{Round: 0, Active: 4, Messages: 8, Bits: 64, MaxBits: 8})
	tr.Round(RoundInfo{Round: 1, Active: 2, Messages: 4, Bits: 36, MaxBits: 10, Dropped: 1})
	tr.End(Totals{Rounds: 2, Messages: 12, Bits: 100, MaxBits: 10, Dropped: 1})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func TestJSONLGolden(t *testing.T) {
	got := string(sampleTrace(t))
	want := strings.Join([]string{
		`{"schema":"ldc-trace/v1","t":"start","algo":"oldc","graph":"regular","n":4,"m":4,"max_degree":2,"seed":1}`,
		`{"t":"phase","name":"oldc/basic","attrs":{"gap":0,"h":3}}`,
		`{"t":"round","round":0,"active":4,"msgs":8,"bits":64,"maxbits":8}`,
		`{"t":"round","round":1,"active":2,"msgs":4,"bits":36,"maxbits":10,"dropped":1}`,
		`{"t":"end","rounds":2,"msgs":12,"bits":100,"maxbits":10,"dropped":1}`,
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("trace bytes drifted:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestParseTraceRoundtrip(t *testing.T) {
	events, err := ParseTrace(bytes.NewReader(sampleTrace(t)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	if events[0].T != "start" || events[0].Start.Algo != "oldc" || events[0].Start.N != 4 {
		t.Fatalf("bad start event: %+v", events[0])
	}
	if events[1].T != "phase" || events[1].Name != "oldc/basic" || events[1].Attrs["h"] != 3 {
		t.Fatalf("bad phase event: %+v", events[1])
	}
	if events[2].Round.Messages != 8 || events[3].Round.Dropped != 1 {
		t.Fatalf("bad round events: %+v %+v", events[2], events[3])
	}
	if events[4].End.Bits != 100 {
		t.Fatalf("bad end event: %+v", events[4])
	}
	if err := Reconcile(events); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       "{not json}\n",
		"unknown kind":   `{"t":"mystery"}` + "\n",
		"wrong schema":   `{"schema":"ldc-trace/v0","t":"start"}` + "\n",
		"round bad type": `{"t":"round","round":"zero"}` + "\n",
	}
	for name, in := range cases {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted malformed input %q", name, in)
		}
	}
}

func TestReconcileDetectsMismatch(t *testing.T) {
	events, err := ParseTrace(bytes.NewReader(sampleTrace(t)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, mutate := range []func(*Totals){
		func(e *Totals) { e.Bits++ },
		func(e *Totals) { e.Messages-- },
		func(e *Totals) { e.MaxBits = 1 },
		func(e *Totals) { e.Dropped = 0 },
		func(e *Totals) { e.Rounds = 1 },
	} {
		end := *events[len(events)-1].End
		mutate(&end)
		mutated := append(append([]TraceEvent(nil), events[:len(events)-1]...), TraceEvent{T: "end", End: &end})
		if err := Reconcile(mutated); err == nil {
			t.Errorf("reconcile accepted mutated end totals %+v", end)
		}
	}
}

func TestReconcileAllowsSyntheticRounds(t *testing.T) {
	// A layer may report more rounds than the engines traced (e.g. the
	// Theorem 1.3 fallback schedule); bits/messages must still match.
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Round(RoundInfo{Round: 0, Active: 1, Messages: 2, Bits: 10, MaxBits: 5})
	tr.End(Totals{Rounds: 7, Messages: 2, Bits: 10, MaxBits: 5})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	events, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Reconcile(events); err != nil {
		t.Fatalf("reconcile rejected synthetic rounds: %v", err)
	}
}

func TestNilSafeEmitHelpers(t *testing.T) {
	// Must not panic on a nil tracer.
	EmitStart(nil, RunInfo{})
	EmitPhase(nil, "x", nil)

	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	EmitPhase(tr, "p", nil)
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, want := buf.String(), `{"t":"phase","name":"p"}`+"\n"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}
