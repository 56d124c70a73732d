package symtest

import (
	"sync"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/symexpr"
)

// programCache interns compiled programs by source text. A session compiles
// its target before exploring, and under the parallel harness many sessions
// (one per configuration and repetition) target the same source, so each
// source is compiled once per process. Compiled Programs are immutable after
// compilation — the VMs only read instructions and constants, and class
// construction copies spec constants into fresh per-VM maps — which makes a
// shared Program safe for any number of concurrent sessions (validated by
// the -race determinism suite).
//
// sync.Map gives lock-free hits; a concurrent first miss may compile twice,
// but LoadOrStore keeps a single canonical Program, so every session in the
// process observes identical bytecode (and therefore identical HLPCs)
// regardless of scheduling.
type programCache[P any] struct {
	progs   sync.Map // source string -> P
	compile func(src string) (P, error)
}

func (c *programCache[P]) get(src string) (P, error) {
	if p, ok := c.progs.Load(src); ok {
		return p.(P), nil
	}
	p, err := c.compile(src)
	if err != nil {
		return p, err
	}
	actual, _ := c.progs.LoadOrStore(src, p)
	return actual.(P), nil
}

var (
	pyPrograms  = programCache[*minipy.Program]{compile: minipy.Compile}
	luaPrograms = programCache[*minilua.Program]{compile: minilua.Compile}
)

// PyTest is a symbolic test for a MiniPy target: run the module, then call
// Entry with the declared symbolic inputs. A raised exception is the result
// "exception:<type>".
type PyTest struct {
	Source string
	Entry  string
	Inputs []Input
	Config interp.Config

	prog *minipy.Program
}

// Compile compiles the target once per process (see programCache).
func (t *PyTest) Compile() (err error) {
	if t.prog == nil {
		t.prog, err = pyPrograms.get(t.Source)
	}
	return err
}

// Program packages the test for a CHEF session.
func (t *PyTest) Program() chef.TestProgram { return program[minipy.Value](t, t.Config, t.Inputs) }

// Replay re-executes a generated test case on the vanilla interpreter (no
// symbolic machinery), confirming the outcome and measuring line coverage.
func (t *PyTest) Replay(input symexpr.Assignment, stepLimit int64) ReplayResult {
	return replay[minipy.Value](t, t.Inputs, input, stepLimit)
}

// CoverableLines is the set of source lines carrying instructions (the
// paper's "coverable LOC").
func (t *PyTest) CoverableLines() map[int]bool {
	mustCompile(t)
	return t.prog.CoverableLines()
}

func (t *PyTest) start(m *lowlevel.Machine, host hlHost, cfg interp.Config) (func([]minipy.Value) string, string) {
	vm, out := minipy.RunModule(t.prog, m, host, cfg)
	if out.Exception != "" {
		return nil, out.Exception
	}
	return func(args []minipy.Value) string {
		if _, exc := vm.CallFunction(t.Entry, args); exc != nil {
			return "exception:" + exc.Type
		}
		return "ok"
	}, ""
}

func (t *PyTest) symString(m *lowlevel.Machine, in Input) minipy.Value {
	return minipy.SymbolicString(m, in.Name, in.Len, in.Default)
}

func (t *PyTest) symInt(m *lowlevel.Machine, in Input) (minipy.Value, lowlevel.SVal) {
	v := minipy.SymbolicInt(m, in.Name, in.DefInt)
	return v, v.V
}

func (t *PyTest) coverage() (hlHost, map[int]bool) {
	cov := minipy.NewCoverageHost(t.prog)
	return cov, cov.Lines
}

// LuaTest is a symbolic test for a MiniLua target: run the chunk, then call
// Entry with the declared symbolic inputs. A raised error is the result
// "error:<message>".
type LuaTest struct {
	Source string
	Entry  string
	Inputs []Input
	Config interp.Config

	prog *minilua.Program
}

// Compile compiles the target once per process (see programCache).
func (t *LuaTest) Compile() (err error) {
	if t.prog == nil {
		t.prog, err = luaPrograms.get(t.Source)
	}
	return err
}

// Program packages the test for a CHEF session.
func (t *LuaTest) Program() chef.TestProgram { return program[minilua.Value](t, t.Config, t.Inputs) }

// Replay re-executes a generated test case on the vanilla interpreter (no
// symbolic machinery), confirming the outcome and measuring line coverage.
func (t *LuaTest) Replay(input symexpr.Assignment, stepLimit int64) ReplayResult {
	return replay[minilua.Value](t, t.Inputs, input, stepLimit)
}

// CoverableLines is the set of source lines carrying instructions (the
// paper's "coverable LOC").
func (t *LuaTest) CoverableLines() map[int]bool {
	mustCompile(t)
	return t.prog.CoverableLines()
}

func (t *LuaTest) start(m *lowlevel.Machine, host hlHost, cfg interp.Config) (func([]minilua.Value) string, string) {
	vm, out := minilua.RunModule(t.prog, m, host, cfg)
	if out.Error != "" {
		return nil, out.Error
	}
	return func(args []minilua.Value) string {
		if _, err := vm.CallFunction(t.Entry, args); err != nil {
			return "error:" + err.Msg
		}
		return "ok"
	}, ""
}

func (t *LuaTest) symString(m *lowlevel.Machine, in Input) minilua.Value {
	return minilua.SymbolicString(m, in.Name, in.Len, in.Default)
}

func (t *LuaTest) symInt(m *lowlevel.Machine, in Input) (minilua.Value, lowlevel.SVal) {
	v := minilua.SymbolicInt(m, in.Name, in.DefInt)
	return v, v.V
}

func (t *LuaTest) coverage() (hlHost, map[int]bool) {
	cov := minilua.NewCoverageHost(t.prog)
	return cov, cov.Lines
}
