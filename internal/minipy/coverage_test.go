package minipy_test

import (
	"testing"

	"chef/internal/symexpr"
	"chef/internal/symtest"
)

// TestCoverageHost replays an if/else on the input that takes the then
// branch: the replay host covers the then line and not the else line, and
// counts every instruction of the trace.
func TestCoverageHost(t *testing.T) {
	pt := &symtest.PyTest{
		Source: "def f(s):\n    if s == \"a\":\n        y = 1\n    else:\n        y = 2\n    return y\n",
		Entry:  "f",
		Inputs: []symtest.Input{symtest.Str("s", 1, "")},
	}
	rep := pt.Replay(symexpr.Assignment{{Buf: "s", W: symexpr.W8}: 'a'}, 1<<20)
	if rep.Result != "ok" {
		t.Fatalf("replay result %q", rep.Result)
	}
	if !rep.Lines[3] {
		t.Errorf("then-branch line must be covered: %v", rep.Lines)
	}
	if rep.Lines[5] {
		t.Errorf("else-branch line must not be covered: %v", rep.Lines)
	}
	if !pt.CoverableLines()[5] {
		t.Errorf("else-branch line must be coverable: %v", pt.CoverableLines())
	}
	if rep.HLLen < len(rep.Lines) {
		t.Errorf("trace of %d instructions over %d lines", rep.HLLen, len(rep.Lines))
	}
}
