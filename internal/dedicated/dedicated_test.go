package dedicated

import (
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/minipy"
	"chef/internal/packages"
	"chef/internal/symexpr"
)

// symArgs builds symbolic string arguments named like symtest inputs.
func symStr(name string, n int) StrV {
	b := make([]*symexpr.Expr, n)
	for i := range b {
		b[i] = symexpr.NewVar(symexpr.Var{Buf: name, Idx: i, W: symexpr.W8})
	}
	return StrV{B: b}
}

func symInt(name string) IntV {
	return IntV{symexpr.SExt(symexpr.NewVar(symexpr.Var{Buf: name, W: symexpr.W32}), symexpr.W64)}
}

func TestSimpleBranching(t *testing.T) {
	prog := minipy.MustCompile(`
def f(x):
    if x > 10:
        return 1
    return 0
`)
	e := New(prog, Options{})
	if err := e.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	if len(e.Tests()) != 2 {
		t.Fatalf("tests = %d, want 2", len(e.Tests()))
	}
	// Each test's input must satisfy its path: check by sign.
	seenHigh, seenLow := false, false
	for _, tc := range e.Tests() {
		v := int32(tc.Input[symexpr.Var{Buf: "x", W: symexpr.W32}])
		if v > 10 {
			seenHigh = true
		} else {
			seenLow = true
		}
	}
	if !seenHigh || !seenLow {
		t.Fatalf("missing a side: high=%v low=%v", seenHigh, seenLow)
	}
}

func TestMacLearningFlat(t *testing.T) {
	src := packages.MacLearningFlatSource(2)
	prog, err := minipy.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	e := New(prog, Options{})
	args := []Value{symStr("s0", 2), symStr("d0", 2), symStr("s1", 2), symStr("d1", 2)}
	if err := e.Explore("drive_frames", args); err != nil {
		t.Fatal(err)
	}
	// Frame 1: d0 hits iff d0==s0 (2 outcomes). Frame 2: d1 can hit s0 or
	// s1 or miss. Distinct path counts: 2 * 3 = 6 (some may collapse when
	// infeasible; at least 4 must exist).
	if len(e.Tests()) < 4 {
		t.Fatalf("tests = %d, want >= 4", len(e.Tests()))
	}
	st := e.Stats()
	if st.Paths == 0 || st.Steps == 0 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
}

func TestStringEqualityHighLevel(t *testing.T) {
	prog := minipy.MustCompile(`
def f(s):
    if s == "ab":
        return 1
    return 0
`)
	e := New(prog, Options{})
	if err := e.Explore("f", []Value{symStr("s", 2)}); err != nil {
		t.Fatal(err)
	}
	if len(e.Tests()) != 2 {
		t.Fatalf("tests = %d, want 2", len(e.Tests()))
	}
	foundEq := false
	for _, tc := range e.Tests() {
		b0 := byte(tc.Input[symexpr.Var{Buf: "s", Idx: 0, W: symexpr.W8}])
		b1 := byte(tc.Input[symexpr.Var{Buf: "s", Idx: 1, W: symexpr.W8}])
		if b0 == 'a' && b1 == 'b' {
			foundEq = true
		}
	}
	if !foundEq {
		t.Fatal("solver never synthesized the matching string")
	}
}

func TestNotBugCompat(t *testing.T) {
	src := `
def f(x):
    if not x == 5:
        return 0
    return 1
`
	correct := New(minipy.MustCompile(src), Options{})
	if err := correct.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	buggy := New(minipy.MustCompile(src), Options{BugCompat: true})
	if err := buggy.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	if len(correct.Tests()) != 2 {
		t.Fatalf("correct engine: %d tests, want 2", len(correct.Tests()))
	}
	// The bug: the engine queues the same constraint for both sides, so it
	// emits redundant test cases (same concrete behavior) and misses the
	// feasible x == 5 path — exactly the paper's description.
	if distinct := distinctBehaviors(correct.Tests()); distinct != 2 {
		t.Fatalf("correct engine covers %d behaviors, want 2", distinct)
	}
	if distinct := distinctBehaviors(buggy.Tests()); distinct != 1 {
		t.Fatalf("buggy engine covers %d behaviors, want 1 (redundant tests)", distinct)
	}
	for _, tc := range buggy.Tests() {
		if int32(tc.Input[symexpr.Var{Buf: "x", W: symexpr.W32}]) == 5 {
			t.Fatal("BugCompat engine should miss the x == 5 path (the NICE bug)")
		}
	}
}

// distinctBehaviors replays test inputs concretely and counts distinct
// branch outcomes of f(x) — whether x == 5.
func distinctBehaviors(tests []TestCase) int {
	seen := map[bool]bool{}
	for _, tc := range tests {
		seen[int32(tc.Input[symexpr.Var{Buf: "x", W: symexpr.W32}]) == 5] = true
	}
	return len(seen)
}

// TestCrossCheckAgainstCHEF is the §6.6 reference-implementation experiment:
// CHEF's interpreter-derived engine serves as ground truth to detect the
// dedicated engine's missing paths.
func TestCrossCheckAgainstCHEF(t *testing.T) {
	src := `
def f(x):
    if not x == 5:
        return 0
    return 1
`
	// Ground truth via CHEF.
	pt := chefOutcomes(t, src)
	// Buggy dedicated engine: its tests cover fewer distinct behaviors than
	// CHEF's HL path count, exposing the missed feasible path.
	buggy := New(minipy.MustCompile(src), Options{BugCompat: true})
	if err := buggy.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	if got := distinctBehaviors(buggy.Tests()); got >= pt {
		t.Fatalf("cross-check failed to expose the bug: dedicated covers %d behaviors vs CHEF %d HL paths",
			got, pt)
	}
}

func chefOutcomes(t *testing.T, src string) int {
	t.Helper()
	prog := minipy.MustCompile(src)
	tp := func(ctx *chef.Ctx) {
		vm, out := minipy.RunModule(prog, ctx.M, ctx, interp.Optimized)
		if out.Exception != "" {
			ctx.SetResult("moduleerror")
			return
		}
		x := minipy.SymbolicInt(ctx.M, "x", 0)
		_, exc := vm.CallFunction("f", []minipy.Value{x})
		if exc != nil {
			ctx.SetResult("exception:" + exc.Type)
			return
		}
		ctx.SetResult("ok")
	}
	s := chef.NewSession(tp, chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 1})
	return len(s.Run(3_000_000))
}

func TestVirtualTimeComparable(t *testing.T) {
	src := packages.MacLearningFlatSource(1)
	e := New(minipy.MustCompile(src), Options{})
	if err := e.Explore("drive_frames", []Value{symStr("s0", 2), symStr("d0", 2)}); err != nil {
		t.Fatal(err)
	}
	if e.VirtualTime() <= 0 {
		t.Fatal("virtual time must be positive")
	}
}

func TestDedicatedLanguageSubset(t *testing.T) {
	// Exercise the supported opcode surface: builtins, list literals,
	// indexing, boolean operators, unary minus, string concat, functions.
	prog := minipy.MustCompile(`
def helper(v):
    return v + 1
def f(x):
    lst = [1, 2, 3]
    n = len(lst)
    if x > lst[0] and x < lst[2] + 10:
        return helper(n) - 1
    if not (x == -5):
        return 0 - n
    s = "ab" + "cd"
    if len(s) == 4 or x > 100:
        return 99
    return 1
`)
	e := New(prog, Options{})
	if err := e.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	if len(e.Tests()) < 3 {
		t.Fatalf("tests = %d, want >= 3", len(e.Tests()))
	}
	// Every test's path condition produced a model the solver vouched for;
	// sanity-check stats plumbing too.
	st := e.Stats()
	if st.States == 0 || st.Paths == 0 || st.SolverProps == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDedicatedExceptionOutcomes(t *testing.T) {
	prog := minipy.MustCompile(`
def f(x):
    lst = [1]
    if x > 10:
        return lst[5]
    return lst[0]
`)
	e := New(prog, Options{})
	if err := e.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	results := map[string]bool{}
	for _, tc := range e.Tests() {
		results[tc.Result] = true
	}
	if !results["exception:IndexError"] || !results["ok"] {
		t.Fatalf("results %v, want IndexError and ok", results)
	}
}

func TestDedicatedUnsupportedFeatureSurfaces(t *testing.T) {
	// Division is outside the supported subset: the engine reports it as an
	// exception-style outcome instead of wrong answers — the "partial
	// support" column of Table 4.
	prog := minipy.MustCompile(`
def f(x):
    return x // 2
`)
	e := New(prog, Options{})
	if err := e.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range e.Tests() {
		if tc.Result == "ok" {
			t.Fatalf("division should not be supported, got %v", tc.Result)
		}
	}
}

func TestDedicatedHangCap(t *testing.T) {
	prog := minipy.MustCompile(`
def f(x):
    while True:
        pass
`)
	e := New(prog, Options{})
	if err := e.Explore("f", []Value{symInt("x")}); err != nil {
		t.Fatal(err)
	}
	hang := false
	for _, tc := range e.Tests() {
		if tc.Result == "hang" {
			hang = true
		}
	}
	if !hang {
		t.Fatalf("expected a hang outcome, got %v", e.Tests())
	}
}

func TestDedicatedNotInDict(t *testing.T) {
	prog := minipy.MustCompile(`
def f(k):
    d = {}
    d["aa"] = 1
    if k not in d:
        return 0
    return 1
`)
	e := New(prog, Options{})
	if err := e.Explore("f", []Value{symStr("k", 2)}); err != nil {
		t.Fatal(err)
	}
	if len(e.Tests()) < 2 {
		t.Fatalf("tests = %d, want both membership outcomes", len(e.Tests()))
	}
}
