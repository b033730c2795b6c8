package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunExitCodes pins the usage contract: a bare invocation, an unknown
// flag and an unknown suite name exit 2 and write nothing — a typo after
// valid names must not record them first — while a valid -suite run exits
// 0 with its report written.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"bare", nil, 2},
		{"quick only", []string{"-quick"}, 2},
		{"unknown flag", []string{"-run", "E1"}, 2},
		{"typo after valid suite", []string{"-quick", "-suite", "sim,bogus"}, 2},
		{"typo before valid suite", []string{"-quick", "-suite", "bogus,sim"}, 2},
		{"valid suite", []string{"-quick", "-suite", "sim"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			if got := run(append(tc.args, "-out", out), io.Discard); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
			entries, _ := os.ReadDir(out)
			if wrote := len(entries) > 0; wrote != (tc.want == 0) {
				t.Errorf("run(%v) wrote %d files", tc.args, len(entries))
			}
		})
	}
}
