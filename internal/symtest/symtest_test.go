package symtest

import (
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minipy"
	"chef/internal/symexpr"
)

// The paper's running example (Fig. 2), in MiniPy, explored end-to-end
// through the full stack: MiniPy interpreter → CHEF → low-level engine →
// solver.
const emailSrc = `
def validateEmail(email):
    at_sign_pos = email.find("@")
    if at_sign_pos < 3:
        raise InvalidEmailError("at sign too early")
    return "valid"
`

func emailTest(cfg interp.Config) *PyTest {
	return &PyTest{
		Source: emailSrc,
		Entry:  "validateEmail",
		Inputs: []Input{Str("email", 6, "")},
		Config: cfg,
	}
}

func TestEmailValidatorSymbolic(t *testing.T) {
	pt := emailTest(interp.Optimized)
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 1})
	tests := s.Run(3_000_000)
	if len(tests) < 2 {
		t.Fatalf("generated %d tests, want >= 2", len(tests))
	}
	results := map[string]bool{}
	for _, tc := range tests {
		results[tc.Result] = true
	}
	if !results["ok"] || !results["exception:InvalidEmailError"] {
		t.Fatalf("results %v: want both outcomes", results)
	}
	// Soundness: every generated test must replay to its recorded result.
	for _, tc := range tests {
		rep := pt.Replay(tc.Input, 1<<20)
		if rep.Result != tc.Result {
			t.Errorf("replay %s => %q, want %q", InputString(tc.Input, pt.Inputs), rep.Result, tc.Result)
		}
	}
}

func TestEmailValidatorFindsValidInput(t *testing.T) {
	// The solver must synthesize an email with '@' at position >= 3.
	pt := emailTest(interp.Optimized)
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 2})
	tests := s.Run(3_000_000)
	foundValid := false
	for _, tc := range tests {
		if tc.Result == "ok" {
			email := minipy.ConcreteStringFromInput(tc.Input, "email", 6)
			at := -1
			for i := 0; i < len(email); i++ {
				if email[i] == '@' {
					at = i
					break
				}
			}
			if at < 3 {
				t.Errorf("test marked ok but email %q has @ at %d", email, at)
			}
			foundValid = true
		}
	}
	if !foundValid {
		t.Fatal("no valid-email test case generated")
	}
}

func TestVanillaGeneratesFewerHLTestsPerLLPath(t *testing.T) {
	// The vanilla interpreter forks massively more low-level states for the
	// same high-level behavior; with a fixed budget its HL/LL efficiency is
	// lower than the optimized build's (Fig. 10's phenomenon).
	eff := func(cfg interp.Config) (float64, int) {
		pt := emailTest(cfg)
		s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 3})
		tests := s.Run(2_000_000)
		ll := s.Engine().Stats().LLPaths
		if ll == 0 {
			return 0, len(tests)
		}
		return float64(s.HLPathCount()) / float64(ll), len(tests)
	}
	vanillaEff, _ := eff(interp.Vanilla)
	optEff, _ := eff(interp.Optimized)
	if optEff < vanillaEff {
		t.Errorf("optimized efficiency %.3f < vanilla %.3f; optimizations should help", optEff, vanillaEff)
	}
}

func TestIntInputSymbolic(t *testing.T) {
	pt := &PyTest{
		Source: `
def classify(n):
    if n < 0:
        return "neg"
    if n == 0:
        return "zero"
    if n > 1000:
        return "big"
    return "small"
`,
		Entry:  "classify",
		Inputs: []Input{Int("n", 0)},
		Config: interp.Optimized,
	}
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 4})
	tests := s.Run(3_000_000)
	if len(tests) < 4 {
		t.Fatalf("generated %d tests, want >= 4 (one per class)", len(tests))
	}
}

func TestDictWorkloadSymbolic(t *testing.T) {
	// Symbolic dict keys: the MAC-learning shape. Must explore both the
	// hit and miss paths of the lookup.
	pt := &PyTest{
		Source: `
def learn(key):
    table = {}
    table["ab"] = 1
    if key in table:
        return "hit"
    return "miss"
`,
		Entry:  "learn",
		Inputs: []Input{Str("key", 2, "")},
		Config: interp.Optimized,
	}
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 5})
	tests := s.Run(4_000_000)
	results := map[string]bool{}
	for _, tc := range tests {
		rep := pt.Replay(tc.Input, 1<<20)
		results[rep.Result] = true
	}
	if !results["ok"] {
		t.Fatalf("results %v", results)
	}
	// Check that some input found the key "ab" — requires solving the
	// byte-equality constraints through the dict machinery.
	hit := false
	for _, tc := range tests {
		if minipy.ConcreteStringFromInput(tc.Input, "key", 2) == "ab" {
			hit = true
		}
	}
	if !hit {
		t.Error("never synthesized the dict hit key")
	}
}

func TestReplayCoverageGrowsWithTests(t *testing.T) {
	pt := emailTest(interp.Optimized)
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPACoverage, Seed: 6})
	tests := s.Run(3_000_000)
	covered := map[int]bool{}
	for _, tc := range tests {
		rep := pt.Replay(tc.Input, 1<<20)
		for l := range rep.Lines {
			covered[l] = true
		}
	}
	coverable := pt.CoverableLines()
	if len(covered) == 0 || len(covered) > len(coverable) {
		t.Fatalf("covered %d of %d lines", len(covered), len(coverable))
	}
	// The full suite must cover both the raise line and the return line.
	if !covered[4] || !covered[5] {
		t.Errorf("coverage %v should include lines 4 and 5", covered)
	}
}

func TestHangDetectionThroughFullStack(t *testing.T) {
	// The sb-JSON bug shape: an input-dependent infinite loop. The engine
	// must generate a test case with hang status.
	pt := &PyTest{
		Source: `
def parse(s):
    i = 0
    while i < len(s):
        if s[i] == "/":
            while True:
                pass
        i = i + 1
    return "done"
`,
		Entry:  "parse",
		Inputs: []Input{Str("s", 2, "")},
		Config: interp.Optimized,
	}
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 7, StepLimit: 20000})
	tests := s.Run(2_000_000)
	hang := false
	for _, tc := range tests {
		if tc.Status == lowlevel.RunHang {
			hang = true
		}
	}
	if !hang {
		t.Fatalf("no hang test case among %d tests", len(tests))
	}
}

func symexprVar32(name string) symexpr.Var {
	return symexpr.Var{Buf: name, W: symexpr.W32}
}

func TestIntRangeAssumption(t *testing.T) {
	// The assume() precondition must confine exploration in every guest
	// language: no generated test may carry an out-of-range input, and the
	// in-range behaviors must all be found.
	inputs := []Input{IntRange("n", 5, 0, 9)}
	for name, prog := range map[string]chef.TestProgram{
		"python": (&PyTest{
			Source: `
def bucket(n):
    if n < 3:
        return "low"
    if n < 7:
        return "mid"
    return "high"
`,
			Entry: "bucket", Inputs: inputs, Config: interp.Optimized,
		}).Program(),
		"lua": (&LuaTest{
			Source: `
function bucket(n)
    if n < 3 then
        return "low"
    end
    if n < 7 then
        return "mid"
    end
    return "high"
end
`,
			Entry: "bucket", Inputs: inputs, Config: interp.Optimized,
		}).Program(),
	} {
		s := chef.NewSession(prog, chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 12})
		tests := s.Run(2_000_000)
		if len(tests) < 3 {
			t.Fatalf("%s: tests = %d, want >= 3 buckets", name, len(tests))
		}
		for _, tc := range tests {
			v := int32(tc.Input[symexprVar32("n")])
			if v < 0 || v > 9 {
				t.Errorf("%s: out-of-range input %d escaped the assumption", name, v)
			}
		}
	}
}

func TestLuaTestSymbolicEndToEnd(t *testing.T) {
	lt := &LuaTest{
		Source: `
function classify(s)
    if s:sub(1, 1) == "%" then
        return "tag"
    end
    if #s == 0 then
        return "empty"
    end
    return "text"
end
`,
		Entry:  "classify",
		Inputs: []Input{Str("s", 3, "")},
		Config: interp.Optimized,
	}
	s := chef.NewSession(lt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 9})
	tests := s.Run(1_500_000)
	if len(tests) < 2 {
		t.Fatalf("tests = %d, want >= 2", len(tests))
	}
	// Soundness through the Lua replay path.
	for _, tc := range tests {
		if tc.Status == lowlevel.RunHang {
			continue
		}
		rep := lt.Replay(tc.Input, 1<<20)
		if rep.Result != tc.Result {
			t.Errorf("replay %q, want %q", rep.Result, tc.Result)
		}
		if len(rep.Lines) == 0 {
			t.Error("replay recorded no coverage")
		}
	}
	// One test must have synthesized a leading '%'.
	tag := false
	for _, tc := range tests {
		in := tc.Input[symexpr.Var{Buf: "s", Idx: 0, W: symexpr.W8}]
		if byte(in) == '%' {
			tag = true
		}
	}
	if !tag {
		t.Error("never synthesized the tag prefix")
	}
}

func TestLuaTestModuleError(t *testing.T) {
	lt := &LuaTest{
		Source: `error("boom at load")`,
		Entry:  "f",
		Config: interp.Optimized,
	}
	s := chef.NewSession(lt.Program(), chef.Options{Strategy: chef.StrategyRandom, Seed: 10})
	tests := s.Run(100_000)
	if len(tests) != 1 || tests[0].Result[:11] != "moduleerror" {
		t.Fatalf("tests: %+v", tests)
	}
	rep := lt.Replay(nil, 1<<20)
	if rep.Result[:11] != "moduleerror" {
		t.Fatalf("replay: %+v", rep)
	}
}

func TestInputStringRendering(t *testing.T) {
	in := symexpr.Assignment{
		{Buf: "a", Idx: 0, W: symexpr.W8}: 'x',
		{Buf: "a", Idx: 1, W: symexpr.W8}: 'y',
		{Buf: "n", W: symexpr.W32}:        0xFFFFFFFE, // -2
	}
	got := InputString(in, []Input{Str("a", 2, ""), Int("n", 0)})
	if got != `a="xy" n=-2` {
		t.Fatalf("InputString = %q", got)
	}
}

func TestPyTestModuleError(t *testing.T) {
	pt := &PyTest{
		Source: `raise RuntimeError("at import")`,
		Entry:  "f",
		Config: interp.Optimized,
	}
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyRandom, Seed: 11})
	tests := s.Run(100_000)
	if len(tests) != 1 || tests[0].Result != "moduleerror:RuntimeError" {
		t.Fatalf("tests: %+v", tests)
	}
}

func TestLuaIntInputSymbolic(t *testing.T) {
	lt := &LuaTest{
		Source: `
function sign(n)
    if n < 0 then
        return "neg"
    end
    if n == 0 then
        return "zero"
    end
    return "pos"
end
`,
		Entry:  "sign",
		Inputs: []Input{Int("n", 1)},
		Config: interp.Optimized,
	}
	s := chef.NewSession(lt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 13})
	tests := s.Run(1_000_000)
	if len(tests) < 3 {
		t.Fatalf("tests = %d, want 3 signs", len(tests))
	}
	for _, tc := range tests {
		if tc.Status == lowlevel.RunHang {
			continue
		}
		if rep := lt.Replay(tc.Input, 1<<20); rep.Result != tc.Result {
			t.Errorf("replay %q, want %q", rep.Result, tc.Result)
		}
	}
}
