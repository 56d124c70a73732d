// Package symtest is the symbolic test library of §4.3/§5.1: it packages a
// target program written in an interpreted language, an entry point, and a
// set of symbolic inputs into a chef.TestProgram, and provides the replay
// runner that re-executes generated test cases on the vanilla interpreter to
// confirm results and measure line coverage.
//
// This file holds what every guest language shares: the input declarations,
// the session program and the replay. guests.go holds one adapter per
// language (PyTest, LuaTest). Outside this package, only the package
// registry's Package.Test maps a language to its adapter.
package symtest

import (
	"fmt"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minipy"
	"chef/internal/symexpr"
)

// InputKind distinguishes symbolic input types. As in the paper's prototype,
// symbolic program inputs are strings and integers.
type InputKind uint8

// Input kinds.
const (
	StringInput InputKind = iota
	IntInput
)

// Input declares one symbolic input to the test.
type Input struct {
	Name    string
	Kind    InputKind
	Len     int    // string length (fixed buffer, like getString's '\x00'*3)
	Default string // default bytes for the first run
	DefInt  int32
	// HasRange constrains an integer input to [Min, Max] through the
	// assume() API call, as the paper's symbolic tests do for input
	// preconditions.
	HasRange bool
	Min, Max int32
}

// Str declares a symbolic string input of the given length.
func Str(name string, n int, def string) Input {
	return Input{Name: name, Kind: StringInput, Len: n, Default: def}
}

// Int declares a symbolic integer input.
func Int(name string, def int32) Input {
	return Input{Name: name, Kind: IntInput, DefInt: def}
}

// IntRange declares a symbolic integer input constrained to [min, max] via
// the assume() guest API call; min must not exceed max.
func IntRange(name string, def, min, max int32) Input {
	return Input{Name: name, Kind: IntInput, DefInt: def, HasRange: true, Min: min, Max: max}
}

// guest is a language adapter: the part of a symbolic test that differs
// between guest languages. V is the guest interpreter's value type.
type guest[V any] interface {
	Compile() error
	// start runs the compiled module on m and returns the call of the
	// test's entry, rendering its outcome, or the module's error.
	start(m *lowlevel.Machine, host hlHost, cfg interp.Config) (entry func(args []V) string, moduleErr string)
	symString(m *lowlevel.Machine, in Input) V
	// symInt returns the guest integer and its width-64 value.
	symInt(m *lowlevel.Machine, in Input) (V, lowlevel.SVal)
	// coverage returns a host recording the lines the trace visits.
	coverage() (hlHost, map[int]bool)
}

func mustCompile(t interface{ Compile() error }) {
	if err := t.Compile(); err != nil {
		panic(err)
	}
}

// run is one test run on m: the module, then the entry called with one
// symbolic argument per input. With assume set, ranged integer inputs are
// confined through the assume() API call.
func run[V any](g guest[V], m *lowlevel.Machine, host hlHost, cfg interp.Config, inputs []Input, assume bool) string {
	entry, moduleErr := g.start(m, host, cfg)
	if moduleErr != "" {
		return "moduleerror:" + moduleErr
	}
	args := make([]V, len(inputs))
	for i, in := range inputs {
		if in.Kind == StringInput {
			args[i] = g.symString(m, in)
			continue
		}
		v, wide := g.symInt(m, in)
		if assume && in.HasRange {
			assumeRange(m, wide, in.Min, in.Max)
		}
		args[i] = v
	}
	return entry(args)
}

// assumeRange constrains a symbolic width-64 value to [min, max] via the
// assume API call (Table 1 of the paper).
func assumeRange(m *lowlevel.Machine, v lowlevel.SVal, min, max int32) {
	lo := lowlevel.ConcreteVal(uint64(int64(min)), symexpr.W64)
	hi := lowlevel.ConcreteVal(uint64(int64(max)), symexpr.W64)
	m.Assume(0x9001, lowlevel.BoolAndV(lowlevel.SleV(lo, v), lowlevel.SleV(v, hi)))
}

// program is the session program of every guest: the CHEF context is the
// high-level host, and the run's outcome is the test's result.
func program[V any](g guest[V], cfg interp.Config, inputs []Input) chef.TestProgram {
	mustCompile(g)
	return func(ctx *chef.Ctx) {
		ctx.SetResult(run(g, ctx.M, ctx, cfg, inputs, true))
	}
}

// ReplayResult is the outcome of replaying one test case concretely.
type ReplayResult struct {
	Result string
	Status lowlevel.RunStatus
	Lines  map[int]bool // covered source lines
	// HLLen is the length of the high-level instruction trace (LogPC calls)
	// of the replay, LLBranches the number of low-level branch sites visited
	// and Steps the virtual-time cost — the per-test execution profile that
	// chef-replay -summary reports.
	HLLen      int
	LLBranches int64
	Steps      int64
}

// hlHost is the structural shape shared by minipy.Host and minilua.Host, so
// one counting wrapper serves both interpreters.
type hlHost interface {
	LogPC(hlpc uint64, opcode uint32)
}

// countingHost forwards the high-level trace to the coverage recorder while
// counting its length.
type countingHost struct {
	inner hlHost
	n     int
}

// LogPC implements minipy.Host and minilua.Host.
func (h *countingHost) LogPC(hlpc uint64, opcode uint32) {
	h.n++
	h.inner.LogPC(hlpc, opcode)
}

// replay is the Replay of every guest: a concrete machine over the test's
// input, the vanilla build, and a counting coverage host. The input is run as
// given, without the range assumptions, which every generated test already
// meets. A run cut off by the step limit reports "hang".
func replay[V any](g guest[V], inputs []Input, input symexpr.Assignment, stepLimit int64) ReplayResult {
	mustCompile(g)
	m := lowlevel.NewConcreteMachine(input.Clone(), stepLimit)
	cov, lines := g.coverage()
	host := &countingHost{inner: cov}
	res := ReplayResult{Lines: lines}
	res.Status = m.RunConcrete(func(m *lowlevel.Machine) {
		res.Result = run(g, m, host, interp.Vanilla, inputs, false)
	})
	if res.Status == lowlevel.RunHang && res.Result == "" {
		res.Result = "hang"
	}
	res.HLLen = host.n
	res.LLBranches = m.Branches()
	res.Steps = m.Steps()
	return res
}

// InputString renders a test-case input buffer for diagnostics.
func InputString(in symexpr.Assignment, inputs []Input) string {
	s := ""
	for i, decl := range inputs {
		if i > 0 {
			s += " "
		}
		switch decl.Kind {
		case StringInput:
			s += fmt.Sprintf("%s=%q", decl.Name, minipy.ConcreteStringFromInput(in, decl.Name, decl.Len))
		case IntInput:
			s += fmt.Sprintf("%s=%d", decl.Name, int32(in[symexpr.Var{Buf: decl.Name, W: symexpr.W32}]))
		}
	}
	return s
}
