package minipy

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
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

// CoverageHost records executed source lines during replay, implementing
// the coverage measurement of §6.1 (the role of Python's coverage package).
type CoverageHost struct {
	Prog  *Program
	Lines map[int]bool
	seen  []bool // Lines by line number, so each line is inserted once
}

// NewCoverageHost builds a host recording coverage for prog.
func NewCoverageHost(prog *Program) *CoverageHost {
	return &CoverageHost{Prog: prog, Lines: map[int]bool{}}
}

// LogPC implements Host.
func (h *CoverageHost) LogPC(hlpc uint64, opcode uint32) {
	line := h.Prog.LineOf(hlpc)
	if line <= 0 || line < len(h.seen) && h.seen[line] {
		return
	}
	if line >= len(h.seen) {
		h.seen = append(h.seen, make([]bool, line+1-len(h.seen))...)
	}
	h.seen[line] = true
	h.Lines[line] = true
}

// SymbolicString builds a MiniPy string whose bytes are the named symbolic
// input buffer, defaulting to def (zero-padded to n).
func SymbolicString(m *lowlevel.Machine, name string, n int, def string) StrVal {
	b := make([]lowlevel.SVal, n)
	for i := 0; i < n; i++ {
		var d byte
		if i < len(def) {
			d = def[i]
		}
		b[i] = m.InputByte(name, i, d)
	}
	return StrVal{B: b}
}

// SymbolicInt builds a MiniPy int from a named 32-bit symbolic input.
func SymbolicInt(m *lowlevel.Machine, name string, def int32) IntVal {
	return MkIntS(m.InputInt32(name, def))
}

// ConcreteStringFromInput reconstructs the concrete bytes of a named input
// buffer from a test-case assignment (for replay).
func ConcreteStringFromInput(in symexpr.Assignment, name string, n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = byte(in[symexpr.Var{Buf: name, Idx: i, W: symexpr.W8}])
	}
	return string(b)
}
