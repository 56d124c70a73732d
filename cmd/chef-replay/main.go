// Command chef-replay re-executes generated test cases on the vanilla
// interpreter (the paper's replay mode: confirm results on the host and
// measure line coverage).
//
// Usage:
//
//	chef-replay -in tests.ndjson
//	chef-replay -in tests.ndjson -summary   # one-line JSON execution profile
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"chef/internal/interp"
	"chef/internal/packages"
	"chef/internal/symtest"
)

// summary is the -summary output: one JSON line aggregating the replay. A
// concrete replay never consults the constraint solver, so SolverQueries is
// always 0 — the field exists so replay lines and traced-exploration metrics
// share a schema.
type summary struct {
	Package       string `json:"package"`
	Tests         int    `json:"tests"`
	Confirmed     int    `json:"confirmed"`
	Mismatched    int    `json:"mismatched"`
	HLTraceLen    int64  `json:"hlpc_trace_len"`
	LLBranches    int64  `json:"ll_branches"`
	Steps         int64  `json:"steps"`
	SolverQueries int64  `json:"solver_queries"`
	CoveredLines  int    `json:"covered_lines"`
	Coverable     int    `json:"coverable_lines"`
}

// writeSummary renders the one-line JSON summary.
func writeSummary(w io.Writer, s summary) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// replayMatches is the acceptance rule: the replay reproduces the recorded
// result, and a recorded hang matches a replayed hang. The NDJSON format
// JSON-encodes results, which replaces bytes that are not UTF-8 (guest error
// messages quoting raw input bytes) with U+FFFD, so the replayed result is
// compared after the same round trip.
func replayMatches(tc symtest.SerializedTest, replayed string) bool {
	if tc.Status == "hang" && replayed == "hang" {
		return true
	}
	data, _ := json.Marshal(replayed) // a string always marshals
	var wire string
	_ = json.Unmarshal(data, &wire)
	return wire == tc.Result
}

func main() {
	var (
		in      = flag.String("in", "", "NDJSON test file written by cmd/chef")
		stepCap = flag.Int64("steplimit", 60_000, "per-run hang threshold")
		summ    = flag.Bool("summary", false, "print a one-line JSON summary (HLPC trace length, LL branches, coverage) instead of the text report")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "chef-replay: -in is required")
		os.Exit(1)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef-replay: %v\n", err)
		os.Exit(1)
	}
	tests, err := symtest.UnmarshalTests(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef-replay: %v\n", err)
		os.Exit(1)
	}
	covered := map[int]bool{}
	confirmed, mismatched := 0, 0
	var pkgName string
	var coverable int
	var hlLen, llBranches, steps int64
	for _, tc := range tests {
		p, ok := packages.ByName(tc.Package)
		if !ok {
			fmt.Fprintf(os.Stderr, "chef-replay: unknown package %q\n", tc.Package)
			os.Exit(1)
		}
		pkgName = p.Name
		coverable = p.CoverableLOC()
		input, err := symtest.DecodeInput(tc.Input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chef-replay: %v\n", err)
			os.Exit(1)
		}
		rep := p.Test(interp.Vanilla).Replay(input, *stepCap)
		for l := range rep.Lines {
			covered[l] = true
		}
		hlLen += int64(rep.HLLen)
		llBranches += rep.LLBranches
		steps += rep.Steps
		if replayMatches(tc, rep.Result) {
			confirmed++
		} else {
			mismatched++
			// With -summary, stdout carries exactly one JSON line; diagnostics
			// go to stderr.
			w := os.Stdout
			if *summ {
				w = os.Stderr
			}
			fmt.Fprintf(w, "MISMATCH: recorded %q, replayed %q (%s)\n", tc.Result, rep.Result,
				symtest.InputString(input, p.Inputs))
		}
	}
	if *summ {
		err := writeSummary(os.Stdout, summary{
			Package: pkgName, Tests: len(tests), Confirmed: confirmed, Mismatched: mismatched,
			HLTraceLen: hlLen, LLBranches: llBranches, Steps: steps,
			CoveredLines: len(covered), Coverable: coverable,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chef-replay: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("replayed %d tests for %s: %d confirmed, %d mismatched\n",
			len(tests), pkgName, confirmed, mismatched)
		if coverable > 0 {
			fmt.Printf("line coverage: %d/%d lines (%.1f%%)\n",
				len(covered), coverable, 100*float64(len(covered))/float64(coverable))
		}
	}
	if mismatched > 0 {
		os.Exit(1)
	}
}
