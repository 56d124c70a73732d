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

// CoverageHost records executed source lines during replay.
type CoverageHost struct {
	Prog  *Program
	Lines map[int]bool
	seen  []bool // Lines by line number, so each line is inserted once
}

// NewCoverageHost builds a coverage recorder for prog.
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

// SymbolicString builds a MiniLua string over a named symbolic buffer.
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

// SymbolicInt builds a MiniLua number over a named symbolic 32-bit input.
func SymbolicInt(m *lowlevel.Machine, name string, def int32) IntVal {
	return IntVal{lowlevel.SExtV(m.InputInt32(name, def), symexpr.W64)}
}
