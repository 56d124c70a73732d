package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"chef/internal/minipy"
	"chef/internal/packages"
	"chef/internal/symexpr"
	"chef/internal/symtest"
)

// TestReplayMatches pins the acceptance rule. Recorded results come from
// NDJSON, where JSON encoding has replaced every byte that is not UTF-8 with
// U+FFFD; the replayed result is raw, so it must be compared after the same
// round trip.
func TestReplayMatches(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recorded symtest.SerializedTest
		replayed string
		want     bool
	}{
		{"non-UTF-8 result", symtest.SerializedTest{Result: "error:json: unexpected character \uFFFD\uFFFD", Status: "completed"},
			"error:json: unexpected character \x80\xff", true},
		{"exact match", symtest.SerializedTest{Result: "ok", Status: "completed"}, "ok", true},
		{"real mismatch", symtest.SerializedTest{Result: "ok", Status: "completed"}, "error:json: unexpected character \x80", false},
		{"replacement is not a wildcard", symtest.SerializedTest{Result: "x\uFFFD", Status: "completed"}, "xy", false},
		{"hang", symtest.SerializedTest{Result: "hang", Status: "hang"}, "hang", true},
		{"hang recorded, result replayed", symtest.SerializedTest{Result: "hang", Status: "hang"}, "ok", false},
	} {
		if got := replayMatches(tc.recorded, tc.replayed); got != tc.want {
			t.Errorf("%s: replayMatches(%q, %q) = %v, want %v", tc.name, tc.recorded.Result, tc.replayed, got, tc.want)
		}
	}
}

func TestWriteSummaryOneLine(t *testing.T) {
	var buf bytes.Buffer
	err := writeSummary(&buf, summary{
		Package: "simplejson", Tests: 3, Confirmed: 3,
		HLTraceLen: 120, LLBranches: 45, Steps: 900,
		CoveredLines: 10, Coverable: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("summary is not exactly one line: %q", out)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	for _, key := range []string{"package", "tests", "hlpc_trace_len", "ll_branches", "solver_queries", "covered_lines"} {
		if _, ok := got[key]; !ok {
			t.Errorf("summary missing key %q: %s", key, out)
		}
	}
	if got["solver_queries"].(float64) != 0 {
		t.Errorf("concrete replay must report 0 solver queries, got %v", got["solver_queries"])
	}
}

// TestReplayProfileCounters checks the per-replay execution profile the
// summary aggregates: a concrete replay reports a non-empty HL trace, visited
// branch sites, and spent steps.
func TestReplayProfileCounters(t *testing.T) {
	p, ok := packages.ByName("simplejson")
	if !ok {
		t.Fatal("simplejson package missing")
	}
	rep := p.PyTest(minipy.Vanilla).Replay(symexpr.Assignment{}, 60_000)
	if rep.HLLen <= 0 {
		t.Errorf("HLLen = %d, want > 0", rep.HLLen)
	}
	if rep.LLBranches <= 0 {
		t.Errorf("LLBranches = %d, want > 0", rep.LLBranches)
	}
	if rep.Steps <= 0 {
		t.Errorf("Steps = %d, want > 0", rep.Steps)
	}
	if rep.HLLen < len(rep.Lines) {
		t.Errorf("HL trace (%d) shorter than covered line set (%d)", rep.HLLen, len(rep.Lines))
	}
}
