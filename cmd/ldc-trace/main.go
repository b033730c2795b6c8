// Command ldc-trace summarizes an ldc-trace/v1 JSONL round trace (written
// by `ldc-run -trace`): it prints the run metadata, the phase transitions
// interleaved with a per-round table, the end totals, and a reconciliation
// verdict checking that the per-round events sum exactly to the run's
// declared totals.
//
// Usage:
//
//	ldc-run -algo oldc -trace run.jsonl && ldc-trace run.jsonl
//	ldc-trace < run.jsonl
//
// Exit status 0 = trace reconciles, 1 = reconciliation failure, 2 =
// malformed input (mirroring ldc-verify's contract).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

// Exit codes of summarize (and of the process).
const (
	exitOK        = 0
	exitMismatch  = 1
	exitMalformed = 2
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ldc-trace [trace.jsonl]\n\nReads the trace from the file argument ('-' or none = stdin).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	in := io.Reader(os.Stdin)
	if path := flag.Arg(0); path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldc-trace: %v\n", err)
			os.Exit(exitMalformed)
		}
		defer f.Close()
		in = f
	}
	os.Exit(summarize(in, os.Stdout))
}

// summarize renders the trace read from r onto w and returns the exit code.
func summarize(r io.Reader, w io.Writer) int {
	events, err := obs.ParseTrace(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldc-trace: %v\n", err)
		return exitMalformed
	}

	// Faults columns appear only when the trace recorded any faults.
	faulty := false
	traced := 0
	var maxBits int64
	for _, ev := range events {
		if ev.T == "round" {
			traced++
			if ev.Round.Dropped != 0 || ev.Round.Corrupted != 0 || ev.Round.DecodeFaults != 0 {
				faulty = true
			}
			if ev.Round.Bits > maxBits {
				maxBits = ev.Round.Bits
			}
		}
	}

	header := false
	for _, ev := range events {
		switch ev.T {
		case "start":
			s := ev.Start
			fmt.Fprintf(w, "run: algo=%s graph=%s n=%d m=%d Δ=%d seed=%d\n",
				s.Algo, s.Graph, s.N, s.M, s.MaxDegree, s.Seed)
		case "phase":
			fmt.Fprintf(w, "phase %s%s\n", ev.Name, formatAttrs(ev.Attrs))
			header = false
		case "round":
			if !header {
				fmt.Fprintf(w, "round  active    msgs       bits  maxbits%s\n", faultHeader(faulty))
				header = true
			}
			ri := ev.Round
			row := fmt.Sprintf("%5d  %6d  %6d  %9d  %7d%s",
				ri.Round, ri.Active, ri.Messages, ri.Bits, ri.MaxBits, faultCells(faulty, ri))
			if b := bar(ri.Bits, maxBits); b != "" {
				row += "  " + b
			}
			fmt.Fprintln(w, row)
		case "end":
			e := ev.End
			extra := ""
			if traced < e.Rounds {
				extra = fmt.Sprintf(" (%d traced, %d synthetic)", traced, e.Rounds-traced)
			}
			fmt.Fprintf(w, "totals: rounds=%d%s msgs=%d bits=%d maxbits=%d", e.Rounds, extra, e.Messages, e.Bits, e.MaxBits)
			if e.Dropped != 0 || e.Corrupted != 0 || e.DecodeFaults != 0 {
				fmt.Fprintf(w, " dropped=%d corrupted=%d decode-faults=%d", e.Dropped, e.Corrupted, e.DecodeFaults)
			}
			fmt.Fprintln(w)
		}
	}

	if err := obs.Reconcile(events); err != nil {
		fmt.Fprintf(w, "reconciliation: FAIL: %v\n", err)
		return exitMismatch
	}
	fmt.Fprintln(w, "reconciliation: OK")
	return exitOK
}

// formatAttrs renders a phase's attributes as " {k=v k=v}" in the sorted
// key order ParseTrace preserves from the wire format.
func formatAttrs(attrs obs.Attrs) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	// Insertion sort: attr maps are tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, attrs[k])
	}
	return " {" + strings.Join(parts, " ") + "}"
}

func faultHeader(faulty bool) string {
	if !faulty {
		return ""
	}
	return "  dropped  corrupt  decode"
}

func faultCells(faulty bool, ri *obs.RoundInfo) string {
	if !faulty {
		return ""
	}
	return fmt.Sprintf("  %7d  %7d  %6d", ri.Dropped, ri.Corrupted, ri.DecodeFaults)
}

// bar renders a 32-char histogram bar scaling the round's bits against the
// busiest round.
func bar(v, max int64) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := int(v * 32 / max)
	if n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}
