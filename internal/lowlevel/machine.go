package lowlevel

import (
	"errors"
	"fmt"
	"sort"

	"chef/internal/solver"
	"chef/internal/symexpr"
)

// LLPC is a low-level program counter: the unique identifier of a branch (or
// concretization) site inside the interpreter implementation. It corresponds
// to an x86 instruction address under S2E.
type LLPC uint64

// Sentinel panics used for non-local exits of a run. They never escape the
// engine.
var (
	errStepLimit   = errors.New("lowlevel: per-run step limit exceeded")
	errAssumeFail  = errors.New("lowlevel: assumption violated on concrete path")
	errEndSymbolic = errors.New("lowlevel: state terminated via end_symbolic")
)

// pcNode is a persistent path-condition list node so forked states share
// prefixes structurally.
type pcNode struct {
	parent *pcNode
	c      *symexpr.Expr
	depth  int
}

// slice returns the path condition, root first, in a fresh slice (nil when
// empty).
func (n *pcNode) slice() []*symexpr.Expr {
	if n == nil {
		return nil
	}
	dst := make([]*symexpr.Expr, n.depth)
	for p := n; p != nil; p = p.parent {
		dst[p.depth-1] = p.c
	}
	return dst
}

// Machine is the per-run guest context handed to the instrumented
// interpreter. It evaluates branches concretely, extends the path condition,
// and registers alternate states with the engine. It also carries the
// high-level position fields that the CHEF layer maintains through log_pc,
// so that forked states can be classified by CUPA.
type Machine struct {
	eng        *Engine // nil in concrete (replay) mode
	concrete   bool    // replay mode: inputs are plain values, nothing forks
	stepLimit  int64
	assign     symexpr.Assignment // concrete values for input variables
	shared     bool               // assign is a state's base or the caller's input: clone before writing
	pc         *pcNode
	sig        uint64 // rolling low-level path signature
	steps      int64
	nDecisions int
	nBranches  int64 // branch sites visited (concrete + symbolic)

	// Expected divergence check: when a run was synthesized to flip the
	// decision at index expectIdx, the engine verifies the flip happened.
	expectIdx      int // -1 when unused
	expectLLPC     LLPC
	expectTaken    bool
	expectOriented bool // whether expectTaken is meaningful
	diverged       bool

	// High-level position, maintained by the CHEF layer via log_pc.
	DynHLPC    uint64 // occurrence of the HLPC in the unfolded HL execution tree
	StaticHLPC uint64 // the HLPC value itself
	Opcode     uint32 // opcode reported with the last log_pc
}

func sigStep(sig uint64, llpc LLPC, taken uint64) uint64 {
	h := sig ^ (uint64(llpc) * 0x9e3779b97f4a7c15)
	h ^= taken + 0x517cc1b727220a95
	h *= 0xff51afd7ed558ccd
	h ^= h >> 31
	return h
}

// Steps returns the number of virtual steps this run has executed.
func (m *Machine) Steps() int64 { return m.steps }

// Branches returns the number of low-level branch sites this run visited
// (concrete and symbolic alike). Replay tooling reports it as the LL branch
// count of a path.
func (m *Machine) Branches() int64 { return m.nBranches }

// Diverged reports whether the run failed to flip the decision it was
// synthesized to flip.
func (m *Machine) Diverged() bool { return m.diverged }

// Assignment exposes the run's concrete input values (for replay capture).
func (m *Machine) Assignment() symexpr.Assignment { return m.assign }

// Step advances the virtual clock by n units. Every interpreter bytecode
// dispatch and every iteration of a native loop should cost at least one
// step; exceeding the per-run limit aborts the run as a hang, implementing
// the paper's 60-second per-path timeout.
func (m *Machine) Step(n int64) {
	m.steps += n
	if m.steps > m.stepLimit {
		panic(errStepLimit)
	}
}

// StepsLeft returns how many more steps the run may take before Step
// aborts it as a hang.
func (m *Machine) StepsLeft() int64 { return m.stepLimit - m.steps }

// CountConcreteBranches counts n branch sites with concrete conditions
// whose steps the caller charges with Step. It is what n calls of Branch on
// concrete conditions count besides their steps; interpreters use it to
// charge work recorded once, such as building a stdlib template.
func (m *Machine) CountConcreteBranches(n int64) { m.nBranches += n }

// NewConcreteMachine builds a machine for replaying a test case on the
// vanilla (uninstrumented-in-spirit) interpreter: inputs are purely concrete
// and branch sites never fork. The step limit still applies, so replay can
// confirm hangs. The machine never writes input: it copies it before
// recording an input that the run declares and input lacks.
func NewConcreteMachine(input symexpr.Assignment, stepLimit int64) *Machine {
	if stepLimit <= 0 {
		stepLimit = 1 << 20
	}
	return &Machine{concrete: true, stepLimit: stepLimit, assign: input, shared: true, expectIdx: -1}
}

// RunConcrete executes f on the machine, converting the sentinel panics into
// a run status exactly as the engine does for symbolic runs.
func (m *Machine) RunConcrete(f func(*Machine)) (status RunStatus) {
	status = RunCompleted
	defer func() {
		switch r := recover(); r {
		case nil:
		case errStepLimit:
			status = RunHang
		case errAssumeFail:
			status = RunAssumeFailed
		case errEndSymbolic:
			status = RunEnded
		default:
			panic(r)
		}
	}()
	f(m)
	return
}

// InputByte returns the concolic value of one byte of a named symbolic
// buffer, defaulting to def on paths where the solver did not constrain it.
func (m *Machine) InputByte(buf string, idx int, def byte) SVal {
	v := symexpr.Var{Buf: buf, Idx: idx, W: symexpr.W8}
	c, ok := m.assign[v]
	if !ok {
		c = uint64(def)
		m.setInput(v, c)
	}
	if m.concrete {
		return ConcreteVal(c, symexpr.W8)
	}
	return SVal{C: c & 0xff, E: symexpr.NewVar(v), W: symexpr.W8}
}

// InputBytes returns the n concolic bytes of a named symbolic buffer,
// defaulting to def padded with zeros.
func (m *Machine) InputBytes(buf string, n int, def string) []SVal {
	out := make([]SVal, n)
	for i := range out {
		var d byte
		if i < len(def) {
			d = def[i]
		}
		out[i] = m.InputByte(buf, i, d)
	}
	return out
}

// InputInt32 returns the concolic value of a named 32-bit symbolic input.
func (m *Machine) InputInt32(name string, def int32) SVal {
	v := symexpr.Var{Buf: name, W: symexpr.W32}
	c, ok := m.assign[v]
	if !ok {
		c = uint64(uint32(def))
		m.setInput(v, c)
	}
	if m.concrete {
		return ConcreteVal(c, symexpr.W32)
	}
	return SVal{C: c & 0xffffffff, E: symexpr.NewVar(v), W: symexpr.W32}
}

// setInput records the value of a newly declared input. While assign is
// shared, as a forked state's base or a concrete machine's input, it is
// copied first, so neither is ever written (see State.base).
func (m *Machine) setInput(v symexpr.Var, c uint64) {
	if m.shared {
		m.assign = m.assign.Clone()
		m.shared = false
	}
	m.assign[v] = c
}

// Branch records a conditional branch at site llpc and returns the concrete
// decision. Symbolic conditions extend the path condition and register the
// alternate decision as a pending state with the engine; concrete conditions
// are free.
func (m *Machine) Branch(llpc LLPC, cond SVal) bool {
	if cond.W != symexpr.W1 {
		panic(fmt.Sprintf("lowlevel: Branch condition width %d, want 1", cond.W))
	}
	m.Step(1)
	m.nBranches++
	taken := cond.C != 0
	if !cond.IsSymbolic() {
		return taken
	}
	e := cond.Expr()
	var here, alt *symexpr.Expr
	if taken {
		here, alt = e, symexpr.Not(e)
	} else {
		here, alt = symexpr.Not(e), e
	}
	altSig := sigStep(m.sig, llpc, b2u(!taken))
	m.eng.registerAlternate(m, llpc, alt, altSig, !taken, true)
	m.pc = &pcNode{parent: m.pc, c: here, depth: depthOf(m.pc) + 1}
	if m.expectIdx >= 0 && m.nDecisions == m.expectIdx {
		if llpc != m.expectLLPC || (m.expectOriented && taken != m.expectTaken) {
			m.diverged = true
		}
		m.expectIdx = -1
	}
	m.nDecisions++
	m.sig = sigStep(m.sig, llpc, b2u(taken))
	m.eng.markVisited(m.sig)
	return taken
}

func depthOf(n *pcNode) int {
	if n == nil {
		return 0
	}
	return n.depth
}

// ConcretizeFork pins a symbolic value to its concrete interpretation and
// forks one pending state that excludes every value observed at this dynamic
// site, enumerating the feasible domain across runs. This models strategy
// (a) of the paper's symbolic-pointer discussion: fork the state for each
// possible concrete value.
func (m *Machine) ConcretizeFork(llpc LLPC, v SVal) uint64 {
	m.Step(1)
	if !v.IsSymbolic() {
		return v.C
	}
	key := concretizeKey{m.sig, llpc}
	seen := m.eng.seenValues[key]
	if seen == nil {
		seen = map[uint64]bool{}
		m.eng.seenValues[key] = seen
	}
	seen[v.C] = true
	// Alternate: all previously seen values excluded. The exclusions are
	// conjoined in sorted value order — Go map iteration order would build
	// structurally different (though logically equivalent) constraints from
	// run to run, breaking the determinism the parallel harness depends on.
	vals := make([]uint64, 0, len(seen))
	for sv := range seen {
		vals = append(vals, sv)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	alt := symexpr.True
	for _, sv := range vals {
		alt = symexpr.BoolAnd(alt, symexpr.Ne(v.Expr(), symexpr.Const(sv, v.W)))
	}
	altSig := sigStep(m.sig, llpc, ^v.C)
	m.eng.registerAlternate(m, llpc, alt, altSig, false, false)
	here := symexpr.Eq(v.Expr(), symexpr.Const(v.C, v.W))
	m.pc = &pcNode{parent: m.pc, c: here, depth: depthOf(m.pc) + 1}
	m.nDecisions++
	m.sig = sigStep(m.sig, llpc, v.C)
	m.eng.markVisited(m.sig)
	return v.C
}

// ConcretizeSilent pins a symbolic value to its concrete interpretation
// without forking alternates — the `concretize` API call of Table 1, which
// trades completeness for tractability.
func (m *Machine) ConcretizeSilent(v SVal) uint64 {
	m.Step(1)
	if !v.IsSymbolic() {
		return v.C
	}
	here := symexpr.Eq(v.Expr(), symexpr.Const(v.C, v.W))
	m.pc = &pcNode{parent: m.pc, c: here, depth: depthOf(m.pc) + 1}
	return v.C
}

// Assume constrains the path with cond. When the current concrete input
// violates the assumption, the run ends without producing a test case, but a
// pending state satisfying the assumption is registered so exploration
// continues behind the assumption.
func (m *Machine) Assume(llpc LLPC, cond SVal) {
	m.Step(1)
	if !cond.IsSymbolic() {
		if cond.C == 0 {
			panic(errAssumeFail)
		}
		return
	}
	e := cond.Expr()
	if cond.C == 0 {
		altSig := sigStep(m.sig, llpc, 1)
		m.eng.registerAlternate(m, llpc, e, altSig, true, false)
		panic(errAssumeFail)
	}
	m.pc = &pcNode{parent: m.pc, c: e, depth: depthOf(m.pc) + 1}
	m.sig = sigStep(m.sig, llpc, 1)
	m.eng.markVisited(m.sig)
}

// UpperBound returns a concrete upper bound for v on the current path,
// implementing the upper_bound API call used by symbolic-execution-aware
// allocators (Fig. 6 of the paper). The value itself stays symbolic.
func (m *Machine) UpperBound(v SVal) uint64 {
	if !v.IsSymbolic() || m.eng == nil {
		return v.C
	}
	before := m.eng.solver.Stats().Propagations
	max, ok := m.eng.solver.Maximize(v.Expr(), solver.Query{PC: m.pc.slice(), Base: m.assign})
	m.eng.chargeSolver(before)
	if !ok {
		return v.C
	}
	return max
}

// EndSymbolic terminates the current state, as the end_symbolic API call.
func (m *Machine) EndSymbolic() { panic(errEndSymbolic) }
