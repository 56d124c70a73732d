package main

import (
	"bytes"
	"strings"
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/obs"
	"chef/internal/packages"
)

// syntheticTrace is a small handcrafted event stream covering every report
// section.
func syntheticTrace() []obs.Event {
	return []obs.Event{
		{T: 0, Kind: obs.KindSessionStart, Session: "s1", Seed: 7, Strategy: "cupa-path"},
		{T: 10, Kind: obs.KindLLFork, Session: "s1", LLPC: 0x40, Decision: "flip-taken"},
		{T: 12, Kind: obs.KindLLFork, Session: "s1", LLPC: 0x40, Decision: "flip-untaken"},
		{T: 14, Kind: obs.KindLLFork, Session: "s1", LLPC: 0x99, Decision: "flip-taken"},
		{T: 20, Kind: obs.KindSolverQuery, Session: "s1", Result: "sat", VirtCost: 5, WallCost: 1200, CacheHit: false},
		{T: 25, Kind: obs.KindSolverQuery, Session: "s1", Result: "unsat", VirtCost: 2, WallCost: 400, CacheHit: true},
		{T: 40, Kind: obs.KindTestCase, Session: "s1", HLLen: 3, Sig: "00000000000000aa", Status: "ok"},
		{T: 30, Kind: obs.KindTestCase, Session: "s1", HLLen: 2, Sig: "00000000000000bb", Status: "ok"},
		{T: 50, Kind: obs.KindRunEnd, Session: "s1", Status: "completed"},
		{T: 60, Kind: obs.KindSessionEnd, Session: "s1", Tests: 2, HLPaths: 2, LLPaths: 4},
	}
}

func TestRenderSynthetic(t *testing.T) {
	out, err := Render(syntheticTrace(), "all", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fork hot spots", "HL path discovery timeline", "Solver latency", "Sessions",
		"0x40", "0x99",
		"flip-taken=1 flip-untaken=1", // decisions at 0x40
		"cache:   1/2 hits (50.0%)",
		"sat=1 unsat=1",
		"cupa-path",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
	// Hot-spot ranking: 0x40 (2 forks) before 0x99 (1 fork).
	if strings.Index(out, "0x40") > strings.Index(out, "0x99") {
		t.Error("fork hot spots not sorted by count")
	}
	// Timeline sorted by virtual time: the T=30 test precedes the T=40 one.
	if strings.Index(out, "00000000000000bb") > strings.Index(out, "00000000000000aa") {
		t.Error("timeline not sorted by virtual time")
	}
}

func TestRenderSections(t *testing.T) {
	events := syntheticTrace()
	if _, err := Render(events, "nonsense", 5); err == nil {
		t.Error("unknown section accepted")
	}
	solo, err := Render(events, "solver", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(solo, "Solver latency") || strings.Contains(solo, "Fork hot spots") {
		t.Errorf("-section solver rendered wrong sections:\n%s", solo)
	}
	if _, err := Render(nil, "all", 5); err != nil {
		t.Errorf("empty trace should render: %v", err)
	}
}

// TestEndToEndTrace runs a real (small) exploration with the JSONL tracer and
// checks the parsed trace renders and is consistent with the session summary.
func TestEndToEndTrace(t *testing.T) {
	p, ok := packages.ByName("simplejson")
	if !ok {
		t.Fatal("simplejson package missing")
	}
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	tr.DisableWallClock()
	s := chef.NewSession(p.Test(interp.Optimized).Program(), chef.Options{
		Strategy: chef.StrategyCUPAPath, Seed: 1, StepLimit: 30_000,
		Tracer: tr, Name: "simplejson/e2e/1",
	})
	tests := s.Run(300_000)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("traced run produced no events")
	}
	var cases int
	for _, ev := range events {
		if ev.Kind == obs.KindTestCase {
			cases++
		}
	}
	if cases != len(tests) {
		t.Errorf("testcase events = %d, session produced %d tests", cases, len(tests))
	}
	out, err := Render(events, "all", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fork hot spots", "HL path discovery timeline", "Solver latency", "simplejson/e2e/1"} {
		if !strings.Contains(out, want) {
			t.Errorf("end-to-end report missing %q", want)
		}
	}
}
