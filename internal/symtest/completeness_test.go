package symtest

import (
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minipy"
	"chef/internal/symexpr"
)

// TestSymbolicMatchesBruteForce is the stack's completeness check: for small
// programs over a single symbolic byte, exhaustively enumerating all 256
// concrete inputs must yield exactly the set of outcomes the symbolic
// session discovers (the paper's "theoretically complete" claim, §3.1, at a
// scale where completion is reachable).
func TestSymbolicMatchesBruteForce(t *testing.T) {
	programs := []struct {
		name string
		src  string
	}{
		{"ranges", `
def f(s):
    c = ord(s)
    if c < 32:
        return "ctl"
    if c == 64:
        return "at"
    if c > 127:
        return "high"
    return "print"
`},
		{"classes", `
def f(s):
    if s.isdigit():
        return "digit"
    if s.isalpha():
        if s == s.lower():
            return "lower"
        return "upper"
    return "other"
`},
		{"parse", `
def f(s):
    try:
        n = int(s)
        if n > 5:
            return "big"
        return "small"
    except ValueError:
        return "nan"
`},
	}
	for _, p := range programs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			pt := &PyTest{
				Source: p.src,
				Entry:  "f",
				Inputs: []Input{Str("s", 1, "")},
				Config: interp.Optimized,
			}
			// Brute force ground truth.
			want := map[string]bool{}
			for b := 0; b < 256; b++ {
				in := symexpr.Assignment{{Buf: "s", Idx: 0, W: symexpr.W8}: uint64(b)}
				rep := pt.Replay(in, 1<<20)
				want[replayOutcome(t, pt, in, rep)] = true
			}
			// Symbolic exploration to exhaustion.
			s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 1})
			tests := s.Run(30_000_000)
			got := map[string]bool{}
			for _, tc := range tests {
				got[tc.Result+":"+outcomeOf(pt, tc.Input)] = true
			}
			// Compare outcome sets (keyed the same way).
			if len(got) < len(want) {
				t.Fatalf("symbolic found %d outcome+return combos %v, brute force %d %v",
					len(got), got, len(want), want)
			}
			for k := range want {
				if !got[k] {
					t.Errorf("symbolic exploration missed behavior %q", k)
				}
			}
		})
	}
}

// outcomeOf returns result + the function's return value rendered, so two
// paths with the same exception type but different returns are distinct.
func outcomeOf(pt *PyTest, in symexpr.Assignment) string {
	rep := pt.Replay(in, 1<<20)
	return rep.Result + "/" + renderRet(pt, in)
}

func replayOutcome(t *testing.T, pt *PyTest, in symexpr.Assignment, rep ReplayResult) string {
	t.Helper()
	return rep.Result + ":" + rep.Result + "/" + renderRet(pt, in)
}

// renderRet re-runs the entry and stringifies its return value.
func renderRet(pt *PyTest, in symexpr.Assignment) string {
	prog := minipy.MustCompile(pt.Source)
	m := lowlevel.NewConcreteMachine(in.Clone(), 1<<20)
	var out string
	m.RunConcrete(func(mm *lowlevel.Machine) {
		vm, o := minipy.RunModule(prog, mm, nil, interp.Vanilla)
		if o.Exception != "" {
			out = "moduleerror"
			return
		}
		args := []minipy.Value{minipy.SymbolicString(mm, "s", 1, "")}
		v, exc := vm.CallFunction(pt.Entry, args)
		if exc != nil {
			out = "exc:" + exc.Type
			return
		}
		out = minipy.Repr(v)
	})
	return out
}
