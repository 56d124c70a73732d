// Package symexpr provides the symbolic expression language shared by the
// low-level engine and the constraint solver.
//
// Expressions are fixed-width bit-vectors (widths 1, 8, 16, 32 and 64).
// Width-1 expressions double as booleans. The package plays the role STP's
// expression layer plays for S2E in the CHEF paper: every symbolic value an
// interpreter manipulates is a term in this language, and every path
// condition is a conjunction of width-1 terms.
//
// Constructors perform aggressive constant folding and light algebraic
// simplification so that purely concrete interpreter computations never
// produce symbolic terms.
package symexpr

import (
	"fmt"
	"strings"
)

// Width is the bit width of an expression. Width 1 is the boolean width.
type Width uint8

// Supported widths.
const (
	W1  Width = 1
	W8  Width = 8
	W16 Width = 16
	W32 Width = 32
	W64 Width = 64
)

// Mask returns the bit mask covering w bits.
func (w Width) Mask() uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Op identifies the operator of a compound expression.
type Op uint8

// Operators. Comparison operators produce width-1 results; all other
// operators preserve the width of their operands except the explicit
// width-conversion operators.
const (
	OpInvalid Op = iota

	// Binary arithmetic/bitwise, width-preserving.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl  // left shift; shift amount is Y
	OpLShr // logical right shift

	// Comparisons, width-1 result.
	OpEq
	OpUlt
	OpUle
	OpSlt
	OpSle

	// Unary, width-preserving.
	OpNot // bitwise complement; logical negation at width 1
	OpNeg // two's complement negation

	// Width conversion.
	OpZExt  // zero-extend X to the node's width
	OpSExt  // sign-extend X to the node's width
	OpTrunc // truncate X to the node's width

	// Ternary.
	OpIte // if X (width 1) then Y else Z
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpURem: "urem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr",
	OpEq: "eq", OpUlt: "ult", OpUle: "ule", OpSlt: "slt", OpSle: "sle",
	OpNot: "not", OpNeg: "neg",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpIte: "ite",
}

// String returns the mnemonic for the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Var identifies a symbolic input variable: one element of a named input
// buffer. Scalar inputs use Idx 0. The width of the variable is part of its
// identity.
type Var struct {
	Buf string
	Idx int
	W   Width
}

// Less orders variables by (Buf, Idx, W), a process-independent order.
func (v Var) Less(o Var) bool {
	if v.Buf != o.Buf {
		return v.Buf < o.Buf
	}
	if v.Idx != o.Idx {
		return v.Idx < o.Idx
	}
	return v.W < o.W
}

// String renders the variable as name[idx]:width.
func (v Var) String() string { return fmt.Sprintf("%s[%d]:%d", v.Buf, v.Idx, v.W) }

// Expr is a node in the expression DAG. Expr values are immutable after
// construction and hash-consed: every constructor routes through the
// per-process interner (see intern.go), so structurally equal expressions
// are pointer-identical, Equal is O(1), and the precomputed per-node hash
// and interning ID serve as cheap cache keys.
type Expr struct {
	op   Op
	w    Width
	val  uint64 // constant value (op == OpInvalid, kids == nil, varr == nil)
	varr *Var   // variable (non-nil iff this is a leaf variable)
	kids []*Expr
	hash uint64
	id   uint64   // process-unique interning ID (see Expr.ID)
	vars *[]*Expr // distinct variable leaves (see VarLeaves); nil iff none
}

// Width returns the bit width of the expression.
func (e *Expr) Width() Width { return e.w }

// Op returns the operator, OpInvalid for leaves.
func (e *Expr) Op() Op { return e.op }

// IsConst reports whether the expression is a constant leaf.
func (e *Expr) IsConst() bool { return e.op == OpInvalid && e.varr == nil }

// ConstVal returns the value of a constant leaf. It panics on non-constants.
func (e *Expr) ConstVal() uint64 {
	if !e.IsConst() {
		panic("symexpr: ConstVal on non-constant")
	}
	return e.val
}

// IsVar reports whether the expression is a variable leaf.
func (e *Expr) IsVar() bool { return e.varr != nil }

// VarRef returns the variable of a variable leaf. It panics otherwise.
func (e *Expr) VarRef() Var {
	if e.varr == nil {
		panic("symexpr: VarRef on non-variable")
	}
	return *e.varr
}

// Child returns the i-th operand.
func (e *Expr) Child(i int) *Expr { return e.kids[i] }

// HasSymbols reports whether any variable occurs in the expression.
func (e *Expr) HasSymbols() bool { return e.vars != nil }

// VarLeaves returns the distinct variable leaves occurring in e, sorted by
// interning ID; nil when e has no variables. The set is computed once, when e
// is interned, and shared with e's children wherever one of them already
// covers it, so the slice must not be modified. ID order is process-local:
// callers that need a process-independent order sort by VarRef.
func (e *Expr) VarLeaves() []*Expr {
	if e.vars == nil {
		return nil
	}
	return *e.vars
}

// Hash returns the structural hash of the expression.
func (e *Expr) Hash() uint64 { return e.hash }

const (
	hashSeed  = 0x9e3779b97f4a7c15
	hashMix   = 0xff51afd7ed558ccd
	hashFinal = 0xc4ceb9fe1a85ec53
)

func mix(h, v uint64) uint64 {
	h ^= v
	h *= hashMix
	h ^= h >> 29
	h *= hashFinal
	h ^= h >> 32
	return h
}

func newConst(v uint64, w Width) *Expr {
	v &= w.Mask()
	return intern(&Expr{w: w, val: v, hash: mix(hashSeed^uint64(w), v)})
}

// Const builds a constant of width w; the value is masked to the width.
func Const(v uint64, w Width) *Expr { return newConst(v, w) }

// Bool builds a width-1 constant.
func Bool(b bool) *Expr {
	if b {
		return Const(1, W1)
	}
	return Const(0, W1)
}

// True and False are the width-1 constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// NewVar builds a variable leaf.
func NewVar(v Var) *Expr {
	h := mix(hashSeed^0xabcd, uint64(len(v.Buf)))
	for i := 0; i < len(v.Buf); i++ {
		h = mix(h, uint64(v.Buf[i]))
	}
	h = mix(h, uint64(v.Idx))
	h = mix(h, uint64(v.W))
	vv := v
	return intern(&Expr{w: v.W, varr: &vv, hash: h})
}

func newNode(op Op, w Width, kids ...*Expr) *Expr {
	h := mix(hashSeed^uint64(op)<<8, uint64(w))
	for _, k := range kids {
		h = mix(h, k.hash)
	}
	return intern(&Expr{op: op, w: w, kids: kids, hash: h})
}

// Equal reports structural equality. Hash-consing makes structural equality
// coincide with pointer identity, so this is a single comparison — no hash
// checks, no DAG walks.
func Equal(a, b *Expr) bool { return a == b }

// String renders the expression as an s-expression.
func (e *Expr) String() string {
	var sb strings.Builder
	e.write(&sb, 0)
	return sb.String()
}

func (e *Expr) write(sb *strings.Builder, depth int) {
	if depth > 40 {
		sb.WriteString("...")
		return
	}
	switch {
	case e.IsConst():
		fmt.Fprintf(sb, "%d:%d", e.val, e.w)
	case e.IsVar():
		sb.WriteString(e.varr.String())
	default:
		sb.WriteByte('(')
		sb.WriteString(e.op.String())
		if e.op == OpZExt || e.op == OpSExt || e.op == OpTrunc {
			fmt.Fprintf(sb, ":%d", e.w)
		}
		for _, k := range e.kids {
			sb.WriteByte(' ')
			k.write(sb, depth+1)
		}
		sb.WriteByte(')')
	}
}
