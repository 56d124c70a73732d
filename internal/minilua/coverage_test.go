package minilua_test

import (
	"testing"

	"chef/internal/symexpr"
	"chef/internal/symtest"
)

// TestLuaCoverage replays an if/else on the input that takes the then
// branch: the replay host covers the then line and not the else line, and
// counts every instruction of the trace.
func TestLuaCoverage(t *testing.T) {
	lt := &symtest.LuaTest{
		Source: "function f(s)\n  local y = 0\n  if s == \"a\" then\n    y = 1\n  else\n    y = 2\n  end\n  return y\nend\n",
		Entry:  "f",
		Inputs: []symtest.Input{symtest.Str("s", 1, "")},
	}
	rep := lt.Replay(symexpr.Assignment{{Buf: "s", W: symexpr.W8}: 'a'}, 1<<20)
	if rep.Result != "ok" {
		t.Fatalf("replay result %q", rep.Result)
	}
	if !rep.Lines[4] {
		t.Errorf("line 4 must be covered: %v", rep.Lines)
	}
	if rep.Lines[6] {
		t.Errorf("line 6 must not be covered: %v", rep.Lines)
	}
	if !lt.CoverableLines()[6] {
		t.Errorf("line 6 must be coverable: %v", lt.CoverableLines())
	}
	if rep.HLLen < len(rep.Lines) {
		t.Errorf("trace of %d instructions over %d lines", rep.HLLen, len(rep.Lines))
	}
}
