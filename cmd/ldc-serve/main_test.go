package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestRunExitCodes pins the documented exit-code contract: 0 = clean run,
// 1 = runtime failure, 2 = usage error.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"script ok", []string{"-graph", "ring", "-n", "64", "-script", "-"},
			`[{"op":"add_edge","u":0,"v":9}]` + "\n", 0},
		{"smoke file", []string{"-graph", "ring", "-n", "64", "-script", "testdata/smoke.jsonl"}, "", 0},
		{"empty script", []string{"-graph", "ring", "-n", "16", "-script", "-"}, "", 0},
		{"bad mutation", []string{"-graph", "ring", "-n", "16", "-script", "-"},
			`[{"op":"add_edge","u":3,"v":3}]` + "\n", 1},
		{"unknown op", []string{"-graph", "ring", "-n", "16", "-script", "-"},
			`[{"op":"paint","u":1}]` + "\n", 1},
		{"malformed line", []string{"-graph", "ring", "-n", "16", "-script", "-"}, "not json\n", 2},
		{"missing script file", []string{"-script", "testdata/nope.jsonl"}, "", 2},
		{"no mode", []string{"-graph", "ring", "-n", "16"}, "", 2},
		{"unknown graph", []string{"-graph", "moebius", "-script", "-"}, "", 2},
		{"unknown flag", []string{"-frobnicate"}, "", 2},
		{"space over the bound", []string{"-graph", "ring", "-n", "16", "-space", "16777217", "-script", "-"}, "", 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			restore := stdinFrom(t, tc.stdin)
			defer restore()
			got := run(tc.args, io.Discard, io.Discard)
			if got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// stdinFrom swaps os.Stdin for a pipe fed with s (script mode reads the
// real stdin when -script is "-").
func stdinFrom(t *testing.T, s string) func() {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, s); err != nil {
		t.Fatal(err)
	}
	w.Close()
	old := os.Stdin
	os.Stdin = r
	return func() {
		os.Stdin = old
		r.Close()
	}
}

func TestScriptModeEmitsReports(t *testing.T) {
	g := graph.Ring(32)
	s, err := serve.New(g, serve.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	script := `[{"op":"add_edge","u":0,"v":9}]` + "\n\n" + `[{"op":"add_node"}]` + "\n"
	if code := runScript(&service{srv: s, maxBatch: 4096}, strings.NewReader(script), &out, io.Discard); code != 0 {
		t.Fatalf("runScript = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 reports, got %d: %q", len(lines), out.String())
	}
	var rep serve.BatchReport
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Batch != 2 || rep.Mutations != 1 {
		t.Fatalf("second report off: %+v", rep)
	}
	if s.N() != 33 {
		t.Fatalf("add_node did not land: n=%d", s.N())
	}
}

// TestHTTPEndToEnd drives the full API against an httptest server: apply
// a batch, query colors, fetch the coloring, scrape metrics.
func TestHTTPEndToEnd(t *testing.T) {
	g := graph.Ring(64)
	reg := obs.NewRegistry()
	s, err := serve.New(g, serve.Config{Seed: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(&service{srv: s, maxBatch: 4096}, reg))
	defer srv.Close()

	get := func(path string, want int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d (%s)", path, resp.StatusCode, want, body)
		}
		return string(body)
	}

	if !strings.Contains(get("/healthz", 200), "ok") {
		t.Fatal("healthz not ok")
	}

	resp, err := http.Post(srv.URL+"/batch", "application/json",
		strings.NewReader(`[{"op":"add_edge","u":0,"v":9},{"op":"add_node"}]`))
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.BatchReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || rep.Batch != 1 || rep.Mutations != 2 {
		t.Fatalf("batch: status %d, report %+v", resp.StatusCode, rep)
	}

	var cq struct{ V, Color int }
	if err := json.Unmarshal([]byte(get("/color?v=9", 200)), &cq); err != nil {
		t.Fatal(err)
	}
	if cq.V != 9 {
		t.Fatalf("color query echoed v=%d", cq.V)
	}
	get("/color?v=banana", 400)
	get("/color?v=9999", 404)

	var full struct {
		N        int   `json:"n"`
		Batches  int   `json:"batches"`
		Coloring []int `json:"coloring"`
	}
	if err := json.Unmarshal([]byte(get("/coloring", 200)), &full); err != nil {
		t.Fatal(err)
	}
	if full.N != 65 || full.Batches != 1 || len(full.Coloring) != 65 {
		t.Fatalf("coloring doc off: n=%d batches=%d len=%d", full.N, full.Batches, len(full.Coloring))
	}
	if full.Coloring[9] != cq.Color {
		t.Fatalf("coloring[9]=%d, /color said %d", full.Coloring[9], cq.Color)
	}

	// Invalid batch: 422 with the error and the partial report.
	resp, err = http.Post(srv.URL+"/batch", "application/json",
		strings.NewReader(`[{"op":"add_edge","u":2,"v":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("self-loop batch: status %d, want 422", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/batch", "application/json", strings.NewReader(`{broken`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400", resp.StatusCode)
	}

	metrics := get("/metrics", 200)
	for _, name := range []string{
		obs.MetricServeBatches, obs.MetricServeMutations,
		obs.MetricServeQueries, obs.MetricServeBatchMS,
	} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("metrics page missing %s:\n%s", name, metrics)
		}
	}
}
