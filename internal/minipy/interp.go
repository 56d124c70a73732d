package minipy

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Outcome is the observable result of running a MiniPy program: normal
// completion or an uncaught exception. The experiments layer uses the
// Result string form ("ok" / "exception:<Type>") on generated test cases.
type Outcome struct {
	Exception string // empty on success
	Message   string
	Printed   []string
}

// Result renders the outcome in the canonical test-case form.
func (o Outcome) Result() string {
	if o.Exception == "" {
		return "ok"
	}
	return "exception:" + o.Exception
}

// RunModule executes a compiled program's module body on the given machine
// with the given host and configuration, returning its outcome and the VM
// (whose globals hold module state for further driver calls).
func RunModule(prog *Program, m *lowlevel.Machine, host Host, cfg interp.Config) (*VM, Outcome) {
	vm := NewVM(prog, m, host, cfg)
	_, exc := vm.Run()
	out := Outcome{Printed: vm.Printed()}
	if exc != nil {
		out.Exception = exc.Type
		out.Message = exc.Msg
	}
	return vm, out
}

// SymbolicString builds a MiniPy string whose bytes are the named symbolic
// input buffer, defaulting to def (zero-padded to n).
func SymbolicString(m *lowlevel.Machine, name string, n int, def string) StrVal {
	return StrVal{B: m.InputBytes(name, n, def)}
}

// SymbolicInt builds a MiniPy int from a named 32-bit symbolic input.
func SymbolicInt(m *lowlevel.Machine, name string, def int32) IntVal {
	return MkIntS(m.InputInt32(name, def))
}
