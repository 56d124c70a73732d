package minilua

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// Outcome is the observable result of running a MiniLua chunk.
type Outcome struct {
	Error   string // empty on success
	Printed []string
}

// Result renders the outcome in canonical test-case form.
func (o Outcome) Result() string {
	if o.Error == "" {
		return "ok"
	}
	return "error:" + o.Error
}

// RunModule executes the compiled chunk's main body.
func RunModule(prog *Program, m *lowlevel.Machine, host Host, cfg interp.Config) (*VM, Outcome) {
	vm := NewVM(prog, m, host, cfg)
	_, err := vm.Run()
	out := Outcome{Printed: vm.Printed()}
	if err != nil {
		out.Error = err.Msg
	}
	return vm, out
}

// SymbolicString builds a MiniLua string over a named symbolic buffer.
func SymbolicString(m *lowlevel.Machine, name string, n int, def string) StrVal {
	return StrVal{B: m.InputBytes(name, n, def)}
}

// SymbolicInt builds a MiniLua number over a named symbolic 32-bit input.
func SymbolicInt(m *lowlevel.Machine, name string, def int32) IntVal {
	return IntVal{lowlevel.SExtV(m.InputInt32(name, def), symexpr.W64)}
}
