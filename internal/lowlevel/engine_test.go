package lowlevel

import (
	"math/rand"
	"testing"

	"chef/internal/symexpr"
)

// exploreAll drives the engine until no pending states remain or maxRuns is
// hit, returning the number of executed runs.
func exploreAll(e *Engine, maxRuns int) int {
	runs := 0
	e.RunInitial()
	runs++
	for runs < maxRuns {
		info, more := e.SelectAndRun()
		if !more {
			break
		}
		if info != nil {
			runs++
		}
	}
	return runs
}

func TestBranchEnumeratesBothSides(t *testing.T) {
	var outcomes = map[bool]int{}
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		big := m.Branch(1, UltV(ConcreteVal(10, symexpr.W8), x))
		outcomes[big]++
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(1))), Options{})
	runs := exploreAll(e, 100)
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	if outcomes[true] != 1 || outcomes[false] != 1 {
		t.Fatalf("outcomes = %v, want one of each", outcomes)
	}
}

func TestNestedBranchesEnumerateAllPaths(t *testing.T) {
	// Three sequential symbolic branches => 8 paths.
	paths := map[[3]bool]int{}
	prog := func(m *Machine) {
		var key [3]bool
		for i := 0; i < 3; i++ {
			b := m.InputByte("in", i, 0)
			key[i] = m.Branch(LLPC(10+i), UltV(ConcreteVal(100, symexpr.W8), b))
		}
		paths[key]++
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(2))), Options{})
	runs := exploreAll(e, 100)
	if runs != 8 {
		t.Fatalf("runs = %d, want 8", runs)
	}
	if len(paths) != 8 {
		t.Fatalf("distinct paths = %d, want 8", len(paths))
	}
	for k, n := range paths {
		if n != 1 {
			t.Fatalf("path %v executed %d times, want 1 (dedup failure)", k, n)
		}
	}
}

func TestInfeasiblePathsDiscarded(t *testing.T) {
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		if m.Branch(1, UltV(x, ConcreteVal(10, symexpr.W8))) {
			// x < 10; the nested x > 200 is infeasible.
			m.Branch(2, UltV(ConcreteVal(200, symexpr.W8), x))
		}
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(3))), Options{})
	exploreAll(e, 100)
	if e.Stats().UnsatStates == 0 {
		t.Fatalf("expected at least one unsat state, stats %+v", e.Stats())
	}
}

func TestConcreteBranchesDoNotFork(t *testing.T) {
	prog := func(m *Machine) {
		v := ConcreteVal(5, symexpr.W8)
		m.Branch(1, UltV(v, ConcreteVal(10, symexpr.W8)))
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(4))), Options{})
	runs := exploreAll(e, 100)
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	if e.Stats().Forks != 0 {
		t.Fatalf("forks = %d, want 0", e.Stats().Forks)
	}
}

func TestHangDetection(t *testing.T) {
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		if m.Branch(1, EqV(x, ConcreteVal(7, symexpr.W8))) {
			for { // interpreter-level infinite loop
				m.Step(1)
			}
		}
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(5))), Options{StepLimit: 1000})
	exploreAll(e, 100)
	st := e.Stats()
	if st.Hangs != 1 {
		t.Fatalf("hangs = %d, want 1 (stats %+v)", st.Hangs, st)
	}
	// The hanging run must have charged its full step cap to the clock.
	if e.Clock() < 1000 {
		t.Fatalf("clock = %d, want >= step limit", e.Clock())
	}
}

func TestAssumeRestrictsExploration(t *testing.T) {
	seen := map[uint64]bool{}
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		m.Assume(1, UltV(x, ConcreteVal(3, symexpr.W8)))
		m.Branch(2, EqV(x, ConcreteVal(1, symexpr.W8)))
		seen[m.Assignment()[symexpr.Var{Buf: "in", W: symexpr.W8}]] = true
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(6))), Options{})
	exploreAll(e, 100)
	for v := range seen {
		if v >= 3 {
			t.Fatalf("assumption violated: explored with in=%d", v)
		}
	}
	if !seen[1] {
		t.Fatal("expected to cover the x==1 path")
	}
}

func TestAssumeFailedOnInitialDefaults(t *testing.T) {
	// Defaults (zero) violate the assumption; the engine must recover by
	// solving the assumption and exploring behind it.
	reached := 0
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		m.Assume(1, UltV(ConcreteVal(100, symexpr.W8), x)) // x > 100
		reached++
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(7))), Options{})
	exploreAll(e, 100)
	if reached == 0 {
		t.Fatal("never reached code behind the assumption")
	}
	if e.Stats().AssumeFails != 1 {
		t.Fatalf("assume fails = %d, want 1", e.Stats().AssumeFails)
	}
}

func TestConcretizeForkEnumeratesDomain(t *testing.T) {
	// A value with 4 feasible concrete values (2 bits) must yield 4 runs.
	seen := map[uint64]bool{}
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		two := AndV(x, ConcreteVal(3, symexpr.W8))
		v := m.ConcretizeFork(1, two)
		seen[v] = true
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(8))), Options{})
	exploreAll(e, 100)
	if len(seen) != 4 {
		t.Fatalf("concretize-fork enumerated %d values (%v), want 4", len(seen), seen)
	}
}

func TestConcretizeSilentDoesNotFork(t *testing.T) {
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		m.ConcretizeSilent(x)
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(9))), Options{})
	runs := exploreAll(e, 100)
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
}

func TestUpperBound(t *testing.T) {
	var got uint64
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		if m.Branch(1, UltV(x, ConcreteVal(50, symexpr.W8))) {
			got = m.UpperBound(x)
			m.EndSymbolic()
		}
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(10))), Options{})
	exploreAll(e, 100)
	if got != 49 {
		t.Fatalf("upper bound = %d, want 49", got)
	}
}

func TestEndSymbolicTerminatesState(t *testing.T) {
	after := 0
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		if m.Branch(1, EqV(x, ConcreteVal(1, symexpr.W8))) {
			m.EndSymbolic()
		}
		after++
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(11))), Options{})
	runs := exploreAll(e, 100)
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	if after != 1 {
		t.Fatalf("code after EndSymbolic ran %d times, want 1", after)
	}
}

func TestPathConditionConsistency(t *testing.T) {
	// Property: on every executed path, the collected path condition must be
	// satisfied by the concrete inputs of the run.
	prog := func(m *Machine) {
		a := m.InputByte("a", 0, 0)
		b := m.InputByte("b", 0, 0)
		m.Branch(1, UltV(a, b))
		m.Branch(2, EqV(AndV(a, ConcreteVal(1, symexpr.W8)), ConcreteVal(1, symexpr.W8)))
		for _, c := range m.PathCondition() {
			if !symexpr.EvalBool(c, m.Assignment()) {
				t.Fatalf("path condition %v not satisfied by %v", c, m.Assignment())
			}
		}
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(12))), Options{})
	exploreAll(e, 100)
}

func TestForkWeights(t *testing.T) {
	// Five consecutive forks at one LLPC: weights must be p^4..p^0.
	var states []*State
	prog := func(m *Machine) {
		x := m.InputByte("in", 0, 0)
		// Simulated input-dependent loop: same branch site five times.
		for i := 0; i < 5; i++ {
			if m.Branch(42, EqV(x, ConcreteVal(uint64(100+i), symexpr.W8))) {
				return
			}
		}
	}
	e := NewEngine(prog, NewDFSStrategy(), Options{})
	e.OnFork = func(s *State) { states = append(states, s) }
	e.RunInitial()
	if len(states) != 5 {
		t.Fatalf("forked %d states, want 5", len(states))
	}
	p := 0.75
	want := []float64{p * p * p * p, p * p * p, p * p, p, 1}
	for i, s := range states {
		if diff := s.ForkWeight - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("state %d weight = %g, want %g", i, s.ForkWeight, want[i])
		}
	}
}

func TestStrategiesBasics(t *testing.T) {
	mk := func() []*State {
		return []*State{{Depth: 1}, {Depth: 2}, {Depth: 3}}
	}
	d := NewDFSStrategy()
	for _, s := range mk() {
		d.Add(s)
	}
	if got := d.Select().Depth; got != 3 {
		t.Errorf("DFS first = %d, want 3", got)
	}
	b := NewBFSStrategy()
	for _, s := range mk() {
		b.Add(s)
	}
	if got := b.Select().Depth; got != 1 {
		t.Errorf("BFS first = %d, want 1", got)
	}
	r := NewRandomStrategy(rand.New(rand.NewSource(1)))
	for _, s := range mk() {
		r.Add(s)
	}
	if r.Len() != 3 {
		t.Errorf("random len = %d, want 3", r.Len())
	}
	seen := 0
	for r.Len() > 0 {
		if r.Select() != nil {
			seen++
		}
	}
	if seen != 3 {
		t.Errorf("random drained %d, want 3", seen)
	}
	if r.Select() != nil || d.Select() == nil || b.Select() == nil {
		// d and b still hold two states each.
		t.Error("strategy emptiness behavior wrong")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		prog := func(m *Machine) {
			x := m.InputByte("in", 0, 0)
			y := m.InputByte("in", 1, 0)
			if m.Branch(1, UltV(x, y)) {
				m.Branch(2, EqV(x, ConcreteVal(9, symexpr.W8)))
			} else {
				m.Branch(3, EqV(y, ConcreteVal(3, symexpr.W8)))
			}
		}
		e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(99))), Options{})
		exploreAll(e, 100)
		return e.Clock(), e.Stats().Runs
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
}

func TestSValOps(t *testing.T) {
	x := ConcreteVal(200, symexpr.W8)
	y := ConcreteVal(100, symexpr.W8)
	if got := AddV(x, y).C; got != 44 {
		t.Errorf("AddV wrap = %d, want 44", got)
	}
	if got := SubV(y, x).C; got != 156 {
		t.Errorf("SubV wrap = %d, want 156", got)
	}
	if !UltV(y, x).Bool() {
		t.Error("UltV(100,200) should be true")
	}
	if SltV(ConcreteVal(0x80, symexpr.W8), ConcreteVal(0, symexpr.W8)).C != 1 {
		t.Error("SltV(-128, 0) should be true")
	}
	if got := UDivV(x, ConcreteVal(0, symexpr.W8)).C; got != 255 {
		t.Errorf("UDivV by zero = %d, want 255", got)
	}
	if got := ZExtV(ConcreteVal(0xff, symexpr.W8), symexpr.W32).C; got != 0xff {
		t.Errorf("ZExtV = %x", got)
	}
	if got := SExtV(ConcreteVal(0xff, symexpr.W8), symexpr.W32).C; got != 0xffffffff {
		t.Errorf("SExtV = %x", got)
	}
	if got := TruncV(ConcreteVal(0x1234, symexpr.W32), symexpr.W8).C; got != 0x34 {
		t.Errorf("TruncV = %x", got)
	}
	sym := SVal{C: 5, E: symexpr.NewVar(symexpr.Var{Buf: "s", W: symexpr.W8}), W: symexpr.W8}
	if !AddV(sym, y).IsSymbolic() {
		t.Error("symbolic + concrete must stay symbolic")
	}
	if AddV(x, y).IsSymbolic() {
		t.Error("concrete + concrete must stay concrete")
	}
}

// TestRandomBranchProgramsEnumerateAllPaths is the engine's core
// completeness property: programs made of n independent symbolic branches
// must yield exactly 2^n explored low-level paths, each exactly once,
// regardless of strategy.
func TestRandomBranchProgramsEnumerateAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(4)
		thresholds := make([]uint64, n)
		for i := range thresholds {
			thresholds[i] = uint64(1 + rng.Intn(254))
		}
		paths := map[uint64]int{}
		prog := func(m *Machine) {
			var key uint64
			for i := 0; i < n; i++ {
				b := m.InputByte("in", i, 0)
				if m.Branch(LLPC(100+i), UltV(b, ConcreteVal(thresholds[i], symexpr.W8))) {
					key |= 1 << uint(i)
				}
			}
			paths[key]++
		}
		var strat Strategy
		switch trial % 3 {
		case 0:
			strat = NewRandomStrategy(rand.New(rand.NewSource(int64(trial))))
		case 1:
			strat = NewDFSStrategy()
		default:
			strat = NewBFSStrategy()
		}
		e := NewEngine(prog, strat, Options{})
		exploreAll(e, 200)
		want := 1 << uint(n)
		if len(paths) != want {
			t.Fatalf("trial %d (n=%d, strat %d): %d distinct paths, want %d",
				trial, n, trial%3, len(paths), want)
		}
		for k, c := range paths {
			if c != 1 {
				t.Fatalf("trial %d: path %b executed %d times", trial, k, c)
			}
		}
	}
}

// TestDependentBranchesPruneInfeasible: with dependent conditions, the engine
// must never execute an infeasible combination.
func TestDependentBranchesPruneInfeasible(t *testing.T) {
	seen := map[[2]bool]bool{}
	prog := func(m *Machine) {
		x := m.InputByte("x", 0, 0)
		lt10 := m.Branch(1, UltV(x, ConcreteVal(10, symexpr.W8)))
		lt5 := m.Branch(2, UltV(x, ConcreteVal(5, symexpr.W8)))
		seen[[2]bool{lt10, lt5}] = true
	}
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(9))), Options{})
	exploreAll(e, 100)
	if seen[[2]bool{false, true}] {
		t.Fatal("explored infeasible combination x>=10 && x<5")
	}
	for _, want := range [][2]bool{{true, true}, {true, false}, {false, false}} {
		if !seen[want] {
			t.Errorf("missing feasible combination %v", want)
		}
	}
	if e.Stats().UnsatStates == 0 {
		t.Error("expected the infeasible alternate to be pruned via the solver")
	}
}

// TestVirtualClockMonotonicAndCharged: the clock must be monotone and charge
// both execution steps and solver work.
func TestVirtualClockMonotonicAndCharged(t *testing.T) {
	prog := func(m *Machine) {
		x := m.InputByte("x", 0, 0)
		m.Branch(1, EqV(x, ConcreteVal(42, symexpr.W8)))
		m.Step(100)
	}
	e := NewEngine(prog, NewBFSStrategy(), Options{})
	prev := e.Clock()
	e.RunInitial()
	if e.Clock() <= prev {
		t.Fatal("clock did not advance on initial run")
	}
	prev = e.Clock()
	e.SelectAndRun()
	if e.Clock() <= prev {
		t.Fatal("clock did not advance on alternate run")
	}
	if e.Solver().Stats().Propagations == 0 {
		t.Fatal("solver work expected")
	}
}

// TestFillPCMatchesSlice loads random nodes of a random pcNode forest
// through one engine's buffer and checks every result against
// pcNode.slice: sibling forks, jumps between subtrees, and a shrink to a
// shallow node of another subtree followed by a regrow to a deep node whose
// ancestors the shrink overwrote.
func TestFillPCMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var nodes []*pcNode
	grow := func(parent *pcNode, n int) *pcNode {
		for ; n > 0; n-- {
			c := symexpr.NewVar(symexpr.Var{Buf: "pc", Idx: len(nodes), W: symexpr.W1})
			parent = &pcNode{parent: parent, c: c, depth: depthOf(parent) + 1}
			nodes = append(nodes, parent)
		}
		return parent
	}
	for len(nodes) < 400 {
		var from *pcNode
		if len(nodes) > 0 && r.Intn(8) > 0 {
			from = nodes[r.Intn(len(nodes))]
		}
		grow(from, 1+r.Intn(30))
	}
	var e Engine
	check := func(n *pcNode) {
		t.Helper()
		got, want := e.fillPC(n), n.slice()
		if len(got) != len(want) {
			t.Fatalf("depth %d: got %d constraints, want %d", depthOf(n), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("depth %d: constraint %d is %v, want %v", depthOf(n), i, got[i], want[i])
			}
		}
	}

	deep := grow(nil, 40)
	mid := deep
	for mid.depth > 25 {
		mid = mid.parent
	}
	check(deep)
	check(grow(nil, 3)) // shrink: overwrites deep's first three ancestors
	check(mid)          // regrow within capacity through the stale region
	check(deep)
	check(nil)
	check(deep)
	for i := 0; i < 3000; i++ {
		n := nodes[r.Intn(len(nodes))]
		if r.Intn(4) == 0 && n.parent != nil {
			n = grow(n.parent, 1) // a sibling fork of n
		}
		check(n)
	}
}
