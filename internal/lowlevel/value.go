// Package lowlevel implements the low-level symbolic execution engine that
// plays S2E's role in the CHEF architecture. The "machine code" being
// executed symbolically is the instrumented interpreter: every
// input-dependent branch site in the interpreter carries a unique low-level
// program counter (LLPC), and a low-level path is the sequence of (LLPC,
// decision) pairs taken during one run.
//
// The engine is concolic in the DART style described in §2.1 of the paper:
// each run executes the interpreter concretely under a concrete input
// assignment while collecting the symbolic path condition; forked alternate
// states are (path-condition, metadata) pairs queued for a state-selection
// strategy; selecting one asks the constraint solver for a satisfying input
// and re-executes the interpreter from scratch.
package lowlevel

import (
	"fmt"

	"chef/internal/symexpr"
)

// SVal is a concolic scalar: a concrete value paired with an optional
// symbolic expression. A nil expression means the value is purely concrete.
// The invariant maintained throughout the engine is that evaluating E under
// the machine's input assignment yields C.
type SVal struct {
	C uint64
	E *symexpr.Expr
	W symexpr.Width
}

// ConcreteVal builds a purely concrete SVal.
func ConcreteVal(v uint64, w symexpr.Width) SVal {
	return SVal{C: v & w.Mask(), W: w}
}

// ConcreteBool builds a width-1 concrete SVal.
func ConcreteBool(b bool) SVal {
	if b {
		return ConcreteVal(1, symexpr.W1)
	}
	return ConcreteVal(0, symexpr.W1)
}

// IsSymbolic reports whether the value carries a symbolic expression that
// actually mentions input variables.
func (v SVal) IsSymbolic() bool { return v.E != nil && v.E.HasSymbols() }

// Expr returns the symbolic expression of the value, materializing a
// constant expression for purely concrete values.
func (v SVal) Expr() *symexpr.Expr {
	if v.E != nil {
		return v.E
	}
	return symexpr.Const(v.C, v.W)
}

// Bool returns the concrete truth of a width-1 value.
func (v SVal) Bool() bool { return v.C != 0 }

// Int returns the concrete value sign-extended to a Go int64.
func (v SVal) Int() int64 { return symexpr.SignExtendConst(v.C, v.W) }

func (v SVal) String() string {
	if v.IsSymbolic() {
		return fmt.Sprintf("%d«%s»", v.C, v.E)
	}
	return fmt.Sprintf("%d", v.C)
}

func binOp(op func(a, b *symexpr.Expr) *symexpr.Expr,
	fold func(a, b uint64, w symexpr.Width) uint64,
	resW func(w symexpr.Width) symexpr.Width,
	x, y SVal) SVal {
	if x.W != y.W {
		panic(fmt.Sprintf("lowlevel: width mismatch %d vs %d", x.W, y.W))
	}
	w := resW(x.W)
	out := SVal{C: fold(x.C, y.C, x.W) & w.Mask(), W: w}
	if x.IsSymbolic() || y.IsSymbolic() {
		out.E = op(x.Expr(), y.Expr())
	}
	return out
}

func sameW(w symexpr.Width) symexpr.Width { return w }
func boolW(symexpr.Width) symexpr.Width   { return symexpr.W1 }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AddV returns x + y.
func AddV(x, y SVal) SVal {
	return binOp(symexpr.Add, func(a, b uint64, w symexpr.Width) uint64 { return a + b }, sameW, x, y)
}

// SubV returns x - y.
func SubV(x, y SVal) SVal {
	return binOp(symexpr.Sub, func(a, b uint64, w symexpr.Width) uint64 { return a - b }, sameW, x, y)
}

// MulV returns x * y.
func MulV(x, y SVal) SVal {
	return binOp(symexpr.Mul, func(a, b uint64, w symexpr.Width) uint64 { return a * b }, sameW, x, y)
}

// UDivV returns the unsigned quotient (all-ones for division by zero).
func UDivV(x, y SVal) SVal {
	return binOp(symexpr.UDiv, func(a, b uint64, w symexpr.Width) uint64 {
		if b&w.Mask() == 0 {
			return w.Mask()
		}
		return (a & w.Mask()) / (b & w.Mask())
	}, sameW, x, y)
}

// URemV returns the unsigned remainder (x for division by zero).
func URemV(x, y SVal) SVal {
	return binOp(symexpr.URem, func(a, b uint64, w symexpr.Width) uint64 {
		if b&w.Mask() == 0 {
			return a & w.Mask()
		}
		return (a & w.Mask()) % (b & w.Mask())
	}, sameW, x, y)
}

// AndV returns the bitwise conjunction.
func AndV(x, y SVal) SVal {
	return binOp(symexpr.And, func(a, b uint64, w symexpr.Width) uint64 { return a & b }, sameW, x, y)
}

// OrV returns the bitwise disjunction.
func OrV(x, y SVal) SVal {
	return binOp(symexpr.Or, func(a, b uint64, w symexpr.Width) uint64 { return a | b }, sameW, x, y)
}

// XorV returns the bitwise exclusive or.
func XorV(x, y SVal) SVal {
	return binOp(symexpr.Xor, func(a, b uint64, w symexpr.Width) uint64 { return a ^ b }, sameW, x, y)
}

// LShrV returns x >> y (logical).
func LShrV(x, y SVal) SVal {
	return binOp(symexpr.LShr, func(a, b uint64, w symexpr.Width) uint64 {
		if b&w.Mask() >= uint64(w) {
			return 0
		}
		return (a & w.Mask()) >> (b & w.Mask())
	}, sameW, x, y)
}

// EqV returns the width-1 comparison x == y.
func EqV(x, y SVal) SVal {
	return binOp(symexpr.Eq, func(a, b uint64, w symexpr.Width) uint64 { return b2u(a&w.Mask() == b&w.Mask()) }, boolW, x, y)
}

// NeV returns the width-1 comparison x != y.
func NeV(x, y SVal) SVal { return NotV(EqV(x, y)) }

// UltV returns the width-1 unsigned comparison x < y.
func UltV(x, y SVal) SVal {
	return binOp(symexpr.Ult, func(a, b uint64, w symexpr.Width) uint64 { return b2u(a&w.Mask() < b&w.Mask()) }, boolW, x, y)
}

// UleV returns the width-1 unsigned comparison x <= y.
func UleV(x, y SVal) SVal {
	return binOp(symexpr.Ule, func(a, b uint64, w symexpr.Width) uint64 { return b2u(a&w.Mask() <= b&w.Mask()) }, boolW, x, y)
}

// SltV returns the width-1 signed comparison x < y.
func SltV(x, y SVal) SVal {
	return binOp(symexpr.Slt, func(a, b uint64, w symexpr.Width) uint64 {
		return b2u(symexpr.SignExtendConst(a, w) < symexpr.SignExtendConst(b, w))
	}, boolW, x, y)
}

// SleV returns the width-1 signed comparison x <= y.
func SleV(x, y SVal) SVal {
	return binOp(symexpr.Sle, func(a, b uint64, w symexpr.Width) uint64 {
		return b2u(symexpr.SignExtendConst(a, w) <= symexpr.SignExtendConst(b, w))
	}, boolW, x, y)
}

// NotV returns the bitwise complement (logical negation at width 1).
func NotV(x SVal) SVal {
	out := SVal{C: ^x.C & x.W.Mask(), W: x.W}
	if x.IsSymbolic() {
		out.E = symexpr.Not(x.Expr())
	}
	return out
}

// NegV returns the two's-complement negation.
func NegV(x SVal) SVal {
	out := SVal{C: -x.C & x.W.Mask(), W: x.W}
	if x.IsSymbolic() {
		out.E = symexpr.Neg(x.Expr())
	}
	return out
}

// ZExtV zero-extends to width w.
func ZExtV(x SVal, w symexpr.Width) SVal {
	out := SVal{C: x.C & x.W.Mask(), W: w}
	if x.IsSymbolic() {
		out.E = symexpr.ZExt(x.Expr(), w)
	}
	return out
}

// SExtV sign-extends to width w.
func SExtV(x SVal, w symexpr.Width) SVal {
	out := SVal{C: uint64(symexpr.SignExtendConst(x.C, x.W)) & w.Mask(), W: w}
	if x.IsSymbolic() {
		out.E = symexpr.SExt(x.Expr(), w)
	}
	return out
}

// TruncV truncates to width w.
func TruncV(x SVal, w symexpr.Width) SVal {
	out := SVal{C: x.C & w.Mask(), W: w}
	if x.IsSymbolic() {
		out.E = symexpr.Trunc(x.Expr(), w)
	}
	return out
}

// BoolAndV returns the width-1 conjunction.
func BoolAndV(x, y SVal) SVal { return AndV(x, y) }

// BoolOrV returns the width-1 disjunction.
func BoolOrV(x, y SVal) SVal { return OrV(x, y) }
