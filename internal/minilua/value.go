package minilua

import (
	"fmt"
	"strings"

	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// Value is a MiniLua runtime value.
type Value interface {
	TypeName() string
}

// LuaError is a raised Lua error travelling up the interpreter (error()).
type LuaError struct {
	Msg string
}

// Error implements error.
func (e *LuaError) Error() string { return e.Msg }

func luaErrf(format string, args ...interface{}) *LuaError {
	return &LuaError{Msg: fmt.Sprintf(format, args...)}
}

// NilVal is nil.
type NilVal struct{}

// TypeName implements Value.
func (NilVal) TypeName() string { return "nil" }

// Nil is the nil singleton.
var Nil = NilVal{}

// BoolVal is a boolean with a possibly-symbolic truth.
type BoolVal struct{ B lowlevel.SVal }

// TypeName implements Value.
func (BoolVal) TypeName() string { return "boolean" }

// MkBool wraps a concrete bool.
func MkBool(b bool) BoolVal { return BoolVal{lowlevel.ConcreteBool(b)} }

// IntVal is an integer number (the paper's Lua was configured for integers).
type IntVal struct{ V lowlevel.SVal }

// TypeName implements Value.
func (IntVal) TypeName() string { return "number" }

// MkInt wraps a concrete int64.
func MkInt(v int64) IntVal { return IntVal{lowlevel.ConcreteVal(uint64(v), symexpr.W64)} }

// Boxed concrete scalars. Converting a BoolVal or an IntVal to a Value
// allocates, so the interpreter's hot paths convert concrete booleans, and
// concrete ints in -5..256, to these shared boxes instead. A value carrying
// an expression still boxes fresh.
const smallIntMin, smallIntMax = -5, 256

var (
	boxedBools [2]Value
	boxedInts  [smallIntMax - smallIntMin + 1]Value
)

func init() {
	boxedBools[0], boxedBools[1] = MkBool(false), MkBool(true)
	for i := range boxedInts {
		boxedInts[i] = MkInt(int64(i + smallIntMin))
	}
}

// boolValue boxes a width-1 truth value.
func boolValue(b lowlevel.SVal) Value {
	if b.E == nil && b.W == symexpr.W1 {
		return boxedBools[b.C&1]
	}
	return BoolVal{b}
}

// intValue boxes a width-64 integer value.
func intValue(v lowlevel.SVal) Value {
	if v.E == nil && v.W == symexpr.W64 {
		if i := int64(v.C); i >= smallIntMin && i <= smallIntMax {
			return boxedInts[i-smallIntMin]
		}
	}
	return IntVal{v}
}

// goBool boxes a concrete Go bool.
func goBool(b bool) Value {
	if b {
		return boxedBools[1]
	}
	return boxedBools[0]
}

// goInt boxes a concrete Go int.
func goInt(v int64) Value { return intValue(lowlevel.ConcreteVal(uint64(v), symexpr.W64)) }

// StrVal is a byte string.
type StrVal struct{ B []lowlevel.SVal }

// TypeName implements Value.
func (StrVal) TypeName() string { return "string" }

// MkStr builds a concrete string.
func MkStr(s string) StrVal {
	b := make([]lowlevel.SVal, len(s))
	for i := 0; i < len(s); i++ {
		b[i] = lowlevel.ConcreteVal(uint64(s[i]), symexpr.W8)
	}
	return StrVal{B: b}
}

// Len returns the concrete length.
func (s StrVal) Len() int { return len(s.B) }

// Concrete renders the concrete bytes.
func (s StrVal) Concrete() string {
	var sb strings.Builder
	for _, b := range s.B {
		sb.WriteByte(byte(b.C))
	}
	return sb.String()
}

// HasSymbolicBytes reports whether any byte is symbolic.
func (s StrVal) HasSymbolicBytes() bool {
	for _, b := range s.B {
		if b.IsSymbolic() {
			return true
		}
	}
	return false
}

// TableVal is a Lua table: an array part for dense integer keys plus an
// open-hashing part, the structure whose symbolic-key behavior §4.2's
// optimizations target.
type TableVal struct {
	arr     []Value // 1-based: arr[0] is index 1
	buckets [nBuckets][]*tableEntry
	order   []*tableEntry
	hsize   int
}

const nBuckets = 8

type tableEntry struct {
	key     Value
	val     Value
	deleted bool
}

// NewTable returns an empty table.
func NewTable() *TableVal { return &TableVal{} }

// TypeName implements Value.
func (*TableVal) TypeName() string { return "table" }

// FuncVal is a compiled Lua function.
type FuncVal struct{ Proto *Proto }

// TypeName implements Value.
func (*FuncVal) TypeName() string { return "function" }

// BuiltinVal is a native function.
type BuiltinVal struct {
	Name string
	Fn   func(vm *VM, args []Value) (Value, *LuaError)
}

// TypeName implements Value.
func (*BuiltinVal) TypeName() string { return "function" }

// Repr renders a value concretely for diagnostics.
func Repr(v Value) string {
	switch x := v.(type) {
	case NilVal:
		return "nil"
	case BoolVal:
		if x.B.C != 0 {
			return "true"
		}
		return "false"
	case IntVal:
		return fmt.Sprintf("%d", x.V.Int())
	case StrVal:
		return fmt.Sprintf("%q", x.Concrete())
	case *TableVal:
		return fmt.Sprintf("table: %p", x)
	case *FuncVal:
		return "function: " + x.Proto.Name
	case *BuiltinVal:
		return "builtin: " + x.Name
	default:
		return fmt.Sprintf("<%T>", v)
	}
}

func c64(v uint64) lowlevel.SVal { return lowlevel.ConcreteVal(v, symexpr.W64) }
func c8v(b byte) lowlevel.SVal   { return lowlevel.ConcreteVal(uint64(b), symexpr.W8) }
