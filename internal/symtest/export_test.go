package symtest

import (
	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/symexpr"
)

// freshPy and freshLua run every module in full, as every run did before
// module images: the reference that image starts must match.
type freshPy struct{ *PyTest }

func (g freshPy) start(m *lowlevel.Machine, host interp.Host, cfg interp.Config) (func([]minipy.Value) string, string) {
	vm, out := minipy.RunModule(g.prog, m, host, cfg)
	if out.Exception != "" {
		return nil, out.Exception
	}
	return func(args []minipy.Value) string {
		if _, exc := vm.CallFunction(g.Entry, args); exc != nil {
			return "exception:" + exc.Type
		}
		return "ok"
	}, ""
}

type freshLua struct{ *LuaTest }

func (g freshLua) start(m *lowlevel.Machine, host interp.Host, cfg interp.Config) (func([]minilua.Value) string, string) {
	vm, out := minilua.RunModule(g.prog, m, host, cfg)
	if out.Error != "" {
		return nil, out.Error
	}
	return func(args []minilua.Value) string {
		if _, err := vm.CallFunction(g.Entry, args); err != nil {
			return "error:" + err.Msg
		}
		return "ok"
	}, ""
}

// FreshProgram is t.Program() with the module run in full on every run; t
// is a *PyTest or a *LuaTest.
func FreshProgram(t interface{ Compile() error }) chef.TestProgram {
	switch t := t.(type) {
	case *PyTest:
		return program[minipy.Value](freshPy{t}, t.Config, t.Inputs)
	case *LuaTest:
		return program[minilua.Value](freshLua{t}, t.Config, t.Inputs)
	}
	panic("symtest: not a guest test")
}

// FreshReplay is t.Replay with the module run in full.
func FreshReplay(t interface{ Compile() error }, input symexpr.Assignment, stepLimit int64) ReplayResult {
	switch t := t.(type) {
	case *PyTest:
		return replay[minipy.Value](freshPy{t}, t.Inputs, input, stepLimit)
	case *LuaTest:
		return replay[minilua.Value](freshLua{t}, t.Inputs, input, stepLimit)
	}
	panic("symtest: not a guest test")
}
