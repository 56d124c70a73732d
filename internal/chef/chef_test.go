package chef

import (
	"slices"
	"strings"
	"testing"

	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// validateEmailProg is a synthetic interpreter run with the structure of the
// paper's Fig. 2/3 running example: a "find" instruction that forks one
// low-level path per character position within a single high-level location,
// followed by a high-level branch on the result.
func validateEmailProg(n int) TestProgram {
	const (
		opFind   = 1
		opBranch = 2
		opRet    = 3
		opRaise  = 4
	)
	return func(ctx *Ctx) {
		email := ctx.GetString("email", n, "")
		// HLPC 100: email.find("@") — native loop, one LL branch per index.
		ctx.LogPC(100, opFind)
		pos := lowlevel.ConcreteVal(uint64(0xffffffff), symexpr.W32) // -1
		for i := 0; i < n; i++ {
			ctx.M.Step(1)
			hit := lowlevel.EqV(email[i], lowlevel.ConcreteVal('@', symexpr.W8))
			if ctx.M.Branch(lowlevel.LLPC(1000+0), hit) {
				pos = lowlevel.ConcreteVal(uint64(i), symexpr.W32)
				break
			}
		}
		// HLPC 200: if pos < 3: raise
		ctx.LogPC(200, opBranch)
		if ctx.M.Branch(2000, lowlevel.SltV(pos, lowlevel.ConcreteVal(3, symexpr.W32))) {
			ctx.LogPC(300, opRaise)
			ctx.SetResult("exception:InvalidEmailError")
			return
		}
		ctx.LogPC(400, opRet)
		ctx.SetResult("ok")
	}
}

func TestDistillsHLPathsFromLLPaths(t *testing.T) {
	s := NewSession(validateEmailProg(6), Options{Strategy: StrategyCUPAPath, Seed: 1})
	tests := s.Run(1 << 22)
	st := s.Engine().Stats()
	if st.LLPaths <= int64(len(tests)) {
		t.Fatalf("expected more LL paths (%d) than HL tests (%d)", st.LLPaths, len(tests))
	}
	// HL paths: the program has these HL outcomes: '@' at each position
	// 0..5 (positions 0..2 raise, 3..5 ok) and not-found (raise). The find
	// loop breaks at the first '@', so the HL trace differs only through
	// the branch outcome — exactly 2 distinct HL paths.
	if got := s.Summary().HLPaths; got != 2 {
		t.Fatalf("HL paths = %d, want 2", got)
	}
	// Both outcomes must be represented.
	results := map[string]bool{}
	for _, tc := range tests {
		results[tc.Result] = true
	}
	if !results["ok"] || !results["exception:InvalidEmailError"] {
		t.Fatalf("outcomes %v, want both ok and exception", results)
	}
}

func TestTestInputsSatisfyTheirOutcome(t *testing.T) {
	// Soundness: replaying each generated test concretely must reproduce the
	// recorded outcome.
	s := NewSession(validateEmailProg(6), Options{Strategy: StrategyCUPAPath, Seed: 2})
	tests := s.Run(1 << 22)
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	for _, tc := range tests {
		m := lowlevel.NewConcreteMachine(tc.Input.Clone(), 1<<20)
		var got string
		status := m.RunConcrete(func(m *lowlevel.Machine) {
			ctx := &Ctx{M: m, s: NewSession(nil, Options{})}
			validateEmailProg(6)(ctx)
			got = ctx.Result()
		})
		if status != lowlevel.RunCompleted {
			t.Fatalf("replay status %v", status)
		}
		if got != tc.Result {
			t.Fatalf("replay outcome %q, want %q (input %v)", got, tc.Result, tc.Input)
		}
	}
}

// AddEdge records an observed transition between high-level locations and
// reports whether the edge was new (first observation).
func (g *CFG) AddEdge(from, to HLPC) bool {
	return g.addEdge(g.index(from), g.index(to))
}

// SetOpcode records the opcode of a high-level location.
func (g *CFG) SetOpcode(pc HLPC, opcode uint32) { g.setOpcode(g.index(pc), opcode) }

// outDegree returns the number of distinct successors observed after pc.
func (g *CFG) outDegree(pc HLPC) int {
	if i, ok := g.idx[pc]; ok {
		return len(g.nodes[i].succs)
	}
	return 0
}

// hasEdge reports whether the transition from -> to has been observed.
func (g *CFG) hasEdge(from, to HLPC) bool {
	i, ok := g.idx[from]
	j, ok2 := g.idx[to]
	if !ok || !ok2 {
		return false
	}
	return slices.Contains(g.nodes[i].succs, j)
}

func TestCFGDiscovery(t *testing.T) {
	s := NewSession(validateEmailProg(6), Options{Strategy: StrategyRandom, Seed: 3})
	s.Run(1 << 22)
	g := s.CFG()
	if g.Nodes() < 3 {
		t.Fatalf("cfg nodes = %d, want >= 3", g.Nodes())
	}
	// HLPC 200 must have been observed with two successors (300 and 400).
	if d := g.outDegree(200); d != 2 {
		t.Fatalf("out-degree(200) = %d, want 2 targets", d)
	}
	ops := g.BranchingOpcodes()
	if !ops[2] { // opBranch
		t.Fatalf("branching opcodes %v must include opcode 2", ops)
	}
}

func TestCFGDistances(t *testing.T) {
	g := NewCFG()
	// Linear chain 1 -> 2 -> 3, where 3 has a branching opcode and one
	// successor (4): 3 is a potential branch point.
	g.SetOpcode(1, 7)
	g.SetOpcode(2, 7)
	g.SetOpcode(3, 9)
	g.SetOpcode(4, 7)
	g.SetOpcode(5, 9)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	// Give opcode 9 branching evidence elsewhere: 5 has two successors.
	g.AddEdge(5, 1)
	g.AddEdge(5, 4)
	if !g.BranchingOpcodes()[9] {
		t.Fatal("opcode 9 must be branching")
	}
	pts := g.PotentialBranchPoints()
	found := false
	for _, p := range pts {
		if p == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("potential branch points %v must include 3", pts)
	}
	if d := g.Distance(3); d != 0 {
		t.Fatalf("dist(3) = %d, want 0", d)
	}
	if d := g.Distance(2); d != 1 {
		t.Fatalf("dist(2) = %d, want 1", d)
	}
	if d := g.Distance(1); d != 2 {
		t.Fatalf("dist(1) = %d, want 2", d)
	}
	if d := g.Distance(999); d != unknownDistance {
		t.Fatalf("dist(unknown) = %d, want %d", d, unknownDistance)
	}
}

func TestSeriesMonotonic(t *testing.T) {
	s := NewSession(validateEmailProg(4), Options{Strategy: StrategyCUPAPath, Seed: 4})
	s.Run(1 << 22)
	series := s.Series()
	if len(series) == 0 {
		t.Fatal("no samples")
	}
	for i := 1; i < len(series); i++ {
		if series[i].VirtTime < series[i-1].VirtTime ||
			series[i].LLPaths < series[i-1].LLPaths ||
			series[i].HLPaths < series[i-1].HLPaths {
			t.Fatalf("series not monotone at %d: %+v -> %+v", i, series[i-1], series[i])
		}
	}
}

func TestAllStrategiesTerminate(t *testing.T) {
	for _, k := range []StrategyKind{StrategyRandom, StrategyCUPAPath, StrategyCUPACoverage, StrategyDFS, StrategyBFS} {
		s := NewSession(validateEmailProg(4), Options{Strategy: k, Seed: 5})
		tests := s.Run(1 << 22)
		if len(tests) == 0 {
			t.Errorf("strategy %v produced no tests", k)
		}
	}
}

func TestHangDetectedAndReported(t *testing.T) {
	prog := func(ctx *Ctx) {
		b := ctx.GetString("in", 1, "")
		ctx.LogPC(1, 1)
		if ctx.M.Branch(10, lowlevel.EqV(b[0], lowlevel.ConcreteVal('/', symexpr.W8))) {
			ctx.LogPC(2, 1)
			for {
				ctx.M.Step(1) // parser spins waiting for a token
			}
		}
		ctx.LogPC(3, 1)
		ctx.SetResult("ok")
	}
	s := NewSession(prog, Options{Strategy: StrategyCUPAPath, Seed: 6, StepLimit: 5000})
	tests := s.Run(1 << 22)
	hang := false
	for _, tc := range tests {
		if tc.Status == lowlevel.RunHang {
			hang = true
		}
	}
	if !hang {
		t.Fatalf("expected a hang test case, got %+v", tests)
	}
}

func TestDedupHLPaths(t *testing.T) {
	// A program whose second byte never influences the HL path must yield
	// exactly as many tests as HL paths, not as many as LL paths.
	prog := func(ctx *Ctx) {
		in := ctx.GetString("in", 2, "")
		ctx.LogPC(1, 1)
		// Native-level forks on both bytes within one HL instruction.
		ctx.M.Branch(10, lowlevel.UltV(in[0], lowlevel.ConcreteVal(100, symexpr.W8)))
		ctx.M.Branch(11, lowlevel.UltV(in[1], lowlevel.ConcreteVal(100, symexpr.W8)))
		ctx.LogPC(2, 1)
		ctx.SetResult("ok")
	}
	s := NewSession(prog, Options{Strategy: StrategyRandom, Seed: 7})
	tests := s.Run(1 << 22)
	if s.Engine().Stats().LLPaths != 4 {
		t.Fatalf("LL paths = %d, want 4", s.Engine().Stats().LLPaths)
	}
	if len(tests) != 1 {
		t.Fatalf("HL tests = %d, want 1 (same HL path)", len(tests))
	}
}

func TestGetIntAndAPIPassthroughs(t *testing.T) {
	var sawSymbolic bool
	var bound uint64
	prog := func(ctx *Ctx) {
		ctx.LogPC(1, 1)
		x := ctx.GetInt("x", 5)
		sawSymbolic = ctx.IsSymbolic(x)
		ctx.Assume(50, lowlevel.UltV(x, lowlevel.ConcreteVal(10, symexpr.W32)))
		bound = ctx.UpperBound(x)
		ctx.Concretize(x)
		ctx.SetResult("ok")
	}
	s := NewSession(prog, Options{Strategy: StrategyRandom, Seed: 8})
	s.Run(1 << 22)
	if !sawSymbolic {
		t.Error("GetInt must be symbolic")
	}
	if bound != 9 {
		t.Errorf("upper bound = %d, want 9", bound)
	}
}

func TestBranchingOpcodeDropsRareTail(t *testing.T) {
	g := NewCFG()
	// Eleven distinct opcodes observed branching; opcode 99 branches at one
	// location only, the others at many. With 11 branching opcodes, the 10%
	// least frequent (= 1 opcode) is dropped: the rare one.
	for op := uint32(1); op <= 10; op++ {
		for site := 0; site < 5; site++ {
			pc := uint64(op)*100 + uint64(site)
			g.SetOpcode(pc, op)
			g.AddEdge(pc, pc+1)
			g.AddEdge(pc, pc+2)
		}
	}
	g.SetOpcode(9900, 99)
	g.AddEdge(9900, 9901)
	g.AddEdge(9900, 9902)
	ops := g.BranchingOpcodes()
	if ops[99] {
		t.Errorf("rare opcode 99 should be dropped from %v", ops)
	}
	for op := uint32(1); op <= 10; op++ {
		if !ops[op] {
			t.Errorf("frequent opcode %d missing from %v", op, ops)
		}
	}
}

func TestSessionDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []uint64 {
		s := NewSession(validateEmailProg(5), Options{Strategy: StrategyCUPAPath, Seed: seed})
		tests := s.Run(1 << 21)
		var sigs []uint64
		for _, tc := range tests {
			sigs = append(sigs, tc.HLSig)
		}
		return sigs
	}
	a1, a2 := run(42), run(42)
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different test counts: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed, different path order at %d", i)
		}
	}
}

func TestCFGDOTExport(t *testing.T) {
	s := NewSession(validateEmailProg(4), Options{Strategy: StrategyCUPAPath, Seed: 20})
	s.Run(1 << 21)
	dot := s.CFG().DOT("email")
	for _, want := range []string{"digraph \"email\"", "n100", "n200 -> ", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestSessionSummary(t *testing.T) {
	s := NewSession(validateEmailProg(4), Options{Strategy: StrategyCUPAPath, Seed: 30})
	tests := s.Run(1 << 21)
	sum := s.Summary()
	if sum.HLTests != len(tests) || sum.HLPaths == 0 || sum.LLPaths < int64(sum.HLPaths) {
		t.Fatalf("inconsistent summary: %+v", sum)
	}
	if sum.CFGNodes == 0 || sum.VirtTime == 0 || sum.Runs == 0 {
		t.Fatalf("summary missing data: %+v", sum)
	}
	// Soundness invariant of the concolic engine: no divergences on this
	// well-behaved program.
	if sum.Divergences != 0 {
		t.Errorf("unexpected divergences: %+v", sum)
	}
}

func TestStartSymbolicScopesTracing(t *testing.T) {
	prog := func(ctx *Ctx) {
		ctx.LogPC(1, 1) // setup noise
		ctx.StartSymbolic()
		ctx.LogPC(2, 1)
		ctx.LogPC(3, 1)
		ctx.SetResult("ok")
	}
	s := NewSession(prog, Options{Strategy: StrategyRandom, Seed: 41})
	s.Run(100_000)
	// The 1->2 edge must not exist: StartSymbolic broke the chain.
	if s.CFG().hasEdge(1, 2) {
		t.Error("StartSymbolic failed to anchor the trace")
	}
	if !s.CFG().hasEdge(2, 3) {
		t.Error("edges after StartSymbolic missing")
	}
}

// TestReplaySigIsObservationOnly replays an input down a branch the session
// has not explored: the replay must return that path's signature without
// growing the session's execution tree or CFG.
func TestReplaySigIsObservationOnly(t *testing.T) {
	prog := func(ctx *Ctx) {
		in := ctx.GetString("in", 1, "")
		ctx.LogPC(1, 1)
		if ctx.M.Branch(10, lowlevel.EqV(in[0], lowlevel.ConcreteVal('x', symexpr.W8))) {
			ctx.LogPC(2, 2)
		} else {
			ctx.LogPC(3, 2)
		}
		ctx.LogPC(4, 3)
		ctx.SetResult("ok")
	}
	s := NewSession(prog, Options{Strategy: StrategyDFS, Seed: 1})
	if got := len(s.Run(0)); got != 1 { // the initial run only
		t.Fatalf("initial run produced %d tests, want 1", got)
	}
	g := s.CFG()
	nodes, edges, tree := g.Nodes(), g.Edges(), s.tree.len()
	x := symexpr.Assignment{{Buf: "in", Idx: 0, W: symexpr.W8}: 'x'}
	sig := s.ReplaySig(x)
	if g.Nodes() != nodes || g.Edges() != edges || s.tree.len() != tree {
		t.Fatalf("replay changed the session: cfg %d/%d nodes/edges, tree %d; want %d/%d, %d",
			g.Nodes(), g.Edges(), s.tree.len(), nodes, edges, tree)
	}

	full := NewSession(prog, Options{Strategy: StrategyDFS, Seed: 1})
	var want uint64
	found := false
	for _, tc := range full.Run(1 << 22) {
		if tc.Input[symexpr.Var{Buf: "in", Idx: 0, W: symexpr.W8}] == 'x' {
			want, found = tc.HLSig, true
		}
	}
	if !found {
		t.Fatal("exploration never took the 'x' branch")
	}
	if sig != want {
		t.Fatalf("replay signature %016x, want the explored path's %016x", sig, want)
	}
}
