package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeEdgeFile drops a small valid edge-list file (a 6-ring) into a temp
// dir and returns its path.
func writeEdgeFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ring6.edges")
	data := "# 6-ring\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitCodes pins the documented exit-code contract: 0 = valid run,
// 1 = failed run or invalid output, 2 = usage error. The -metrics-addr
// rows pin the repaired masking bug: a failed run exits 1 (and does not
// park to serve metrics — parking would hang this test) even when a
// metrics address was requested.
func TestRunExitCodes(t *testing.T) {
	noDir := filepath.Join(t.TempDir(), "missing-subdir", "out")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"valid delta1", []string{"-graph", "ring", "-n", "16", "-algo", "delta1"}, 0},
		{"valid oldc json", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc", "-json"}, 0},
		{"valid mis", []string{"-graph", "ring", "-n", "16", "-algo", "mis"}, 0},
		{"valid sharded luby", []string{"-graph", "gnp", "-n", "80", "-p", "0.08", "-algo", "luby", "-shards", "4"}, 0},
		{"valid sharded degluby", []string{"-graph", "pa", "-n", "100", "-deg", "3", "-algo", "degluby", "-shards", "3"}, 0},
		{"valid edge-list file", []string{"-graph", "file:" + writeEdgeFile(t), "-algo", "degluby"}, 0},

		{"missing edge-list file", []string{"-graph", "file:" + filepath.Join(t.TempDir(), "nope.edges")}, 1},

		{"trace unwritable", []string{"-graph", "ring", "-n", "16", "-algo", "delta1", "-trace", noDir}, 1},
		{"memprofile unwritable", []string{"-graph", "ring", "-n", "16", "-algo", "delta1", "-memprofile", noDir}, 1},
		{"failed run with metrics-addr", []string{"-graph", "ring", "-n", "16", "-algo", "delta1",
			"-memprofile", noDir, "-metrics-addr", "127.0.0.1:0"}, 1},

		{"unknown flag", []string{"-frobnicate"}, 2},
		{"unknown algo", []string{"-algo", "rainbow"}, 2},
		{"unknown graph", []string{"-graph", "moebius"}, 2},
		{"chaos without oldc", []string{"-graph", "ring", "-n", "16", "-algo", "delta1", "-chaos", "drop:0.1"}, 2},
		{"shards with delta1", []string{"-graph", "ring", "-n", "16", "-algo", "delta1", "-shards", "4"}, 2},
		{"shards with greedy", []string{"-graph", "ring", "-n", "16", "-algo", "greedy", "-shards", "2"}, 2},
		{"shards with mis", []string{"-graph", "ring", "-n", "16", "-algo", "mis", "-shards", "2"}, 2},
		{"shards with oldc", []string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc", "-shards", "2"}, 0},
		{"repair without oldc", []string{"-graph", "ring", "-n", "16", "-algo", "luby", "-repair"}, 2},
		{"trace with mis", []string{"-graph", "ring", "-n", "16", "-algo", "mis", "-trace", "-"}, 2},
		{"trace with greedy", []string{"-graph", "ring", "-n", "16", "-algo", "greedy", "-trace", "-"}, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.args, io.Discard, io.Discard)
			if got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestRunOutputs spot-checks the human-readable report and the chaos
// summary line.
func TestRunOutputs(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-graph", "ring", "-n", "16", "-algo", "delta1"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "valid: true") {
		t.Fatalf("missing validity line:\n%s", out.String())
	}

	out.Reset()
	code := run([]string{"-graph", "regular", "-n", "32", "-deg", "6", "-algo", "oldc",
		"-chaos", "drop:0.2", "-repair"}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("repair run exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "survival=") || !strings.Contains(out.String(), "chaos=drop:0.2") {
		t.Fatalf("missing chaos/repair summary:\n%s", out.String())
	}
}
