package minipy

import (
	"fmt"
	"strings"

	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// Value is a MiniPy runtime value.
type Value interface {
	// TypeName is the Python-visible type name.
	TypeName() string
}

// Exc is a raised MiniPy exception travelling up the interpreter.
type Exc struct {
	Type string
	Msg  string
}

// Error implements error for Go-side plumbing.
func (e *Exc) Error() string { return e.Type + ": " + e.Msg }

func excf(typ, format string, args ...interface{}) *Exc {
	return &Exc{Type: typ, Msg: fmt.Sprintf(format, args...)}
}

// NoneVal is the None singleton's type.
type NoneVal struct{}

// TypeName implements Value.
func (NoneVal) TypeName() string { return "NoneType" }

// None is the singleton None.
var None = NoneVal{}

// BoolVal is a boolean; its truth may be symbolic (width 1).
type BoolVal struct{ B lowlevel.SVal }

// TypeName implements Value.
func (BoolVal) TypeName() string { return "bool" }

// MkBool wraps a concrete Go bool.
func MkBool(b bool) BoolVal { return BoolVal{lowlevel.ConcreteBool(b)} }

// Boxed concrete scalars. Converting a BoolVal or an IntVal to a Value
// allocates, so the interpreter's hot paths convert concrete booleans, and
// concrete small ints in CPython's cached range -5..256, to these shared
// boxes instead. A value carrying an expression still boxes fresh.
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

// goBool boxes a concrete Go bool.
func goBool(b bool) Value {
	if b {
		return boxedBools[1]
	}
	return boxedBools[0]
}

// intValue boxes an int.
func intValue(v IntVal) Value {
	if v.Big == nil && v.V.E == nil && v.V.W == symexpr.W64 {
		if i := int64(v.V.C); i >= smallIntMin && i <= smallIntMax {
			return boxedInts[i-smallIntMin]
		}
	}
	return v
}

// goInt boxes a concrete Go int.
func goInt(v int64) Value {
	if v >= smallIntMin && v <= smallIntMax {
		return boxedInts[v-smallIntMin]
	}
	return MkInt(v)
}

// IntVal is an integer: a 64-bit concolic small value, or a bignum when Big
// is non-nil (mirroring CPython 2.x int/long promotion).
type IntVal struct {
	V   lowlevel.SVal // width 64, valid when Big == nil
	Big *BigInt
}

// TypeName implements Value.
func (i IntVal) TypeName() string {
	if i.Big != nil {
		return "long"
	}
	return "int"
}

// MkInt wraps a concrete Go int64 as a small int.
func MkInt(v int64) IntVal {
	return IntVal{V: lowlevel.ConcreteVal(uint64(v), symexpr.W64)}
}

// MkIntS wraps a concolic value, sign-extending it to width 64.
func MkIntS(v lowlevel.SVal) IntVal {
	return IntVal{V: lowlevel.SExtV(v, symexpr.W64)}
}

// StrVal is a byte string: a vector of width-8 concolic bytes, exactly the
// representation whose native byte-wise loops drive the paper's low-level
// path explosion.
type StrVal struct{ B []lowlevel.SVal }

// TypeName implements Value.
func (StrVal) TypeName() string { return "str" }

// MkStr builds a concrete string value.
func MkStr(s string) StrVal {
	b := make([]lowlevel.SVal, len(s))
	for i := 0; i < len(s); i++ {
		b[i] = lowlevel.ConcreteVal(uint64(s[i]), symexpr.W8)
	}
	return StrVal{B: b}
}

// Len returns the (always concrete) length.
func (s StrVal) Len() int { return len(s.B) }

// Concrete renders the concrete bytes of the string.
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

// ListVal is a mutable list.
type ListVal struct{ Items []Value }

// TypeName implements Value.
func (*ListVal) TypeName() string { return "list" }

// FuncVal is a user-defined function, optionally bound to a receiver.
type FuncVal struct {
	Code     *Code
	Defaults []Value
	Self     Value // non-nil for bound methods
	Class    *ClassVal
}

// TypeName implements Value.
func (*FuncVal) TypeName() string { return "function" }

// BuiltinVal is a native function.
type BuiltinVal struct {
	Name string
	Fn   func(vm *VM, args []Value) (Value, *Exc)
}

// TypeName implements Value.
func (*BuiltinVal) TypeName() string { return "builtin" }

// ClassVal is a user-defined class.
type ClassVal struct {
	Name    string
	Base    *ClassVal
	Methods map[string]*FuncVal
	Consts  map[string]Value
}

// TypeName implements Value.
func (*ClassVal) TypeName() string { return "type" }

func (c *ClassVal) lookup(name string) (*FuncVal, bool) {
	for k := c; k != nil; k = k.Base {
		if m, ok := k.Methods[name]; ok {
			return m, true
		}
		if v, ok := k.Consts[name]; ok {
			if f, ok := v.(*FuncVal); ok {
				return f, true
			}
		}
	}
	return nil, false
}

func (c *ClassVal) lookupConst(name string) (Value, bool) {
	for k := c; k != nil; k = k.Base {
		if v, ok := k.Consts[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (c *ClassVal) isSubclassOf(name string) bool {
	for k := c; k != nil; k = k.Base {
		if k.Name == name {
			return true
		}
	}
	return false
}

// InstanceVal is an instance of a user class. Attribute names are always
// concrete (they come from source text), so a Go map models CPython's
// interned-key attribute dict faithfully without spurious forking.
type InstanceVal struct {
	Class *ClassVal
	Attrs map[string]Value
}

// TypeName implements Value.
func (i *InstanceVal) TypeName() string { return i.Class.Name }

// ExcInstanceVal is a raised-able exception object created by calling one of
// the built-in exception types, e.g. ValueError("bad literal").
type ExcInstanceVal struct {
	Type string
	Msg  StrVal
}

// TypeName implements Value.
func (e *ExcInstanceVal) TypeName() string { return e.Type }

// builtinExceptionTypes lists the built-in exception hierarchy (flat, plus
// an Exception root that matches everything).
var builtinExceptionTypes = map[string]bool{
	"Exception": true, "ValueError": true, "TypeError": true,
	"KeyError": true, "IndexError": true, "ZeroDivisionError": true,
	"AttributeError": true, "NameError": true, "RuntimeError": true,
	"StopIteration": true, "OverflowError": true, "AssertionError": true,
	"NotImplementedError": true, "ArgumentError": true, "ParseError": true,
	"BadZipfile": true, "XLRDError": true, "error": true,
	"InvalidEmailError": true, "ConfigError": true, "CSVError": true,
}

// excMatches reports whether a raised exception of type raised is caught by
// a handler naming want. "Exception" catches everything built in.
func excMatches(raised, want string) bool {
	if want == "Exception" {
		return true
	}
	return raised == want
}

// Repr renders a value for diagnostics (concrete view).
func Repr(v Value) string {
	switch x := v.(type) {
	case NoneVal:
		return "None"
	case BoolVal:
		if x.B.C != 0 {
			return "True"
		}
		return "False"
	case IntVal:
		if x.Big != nil {
			return x.Big.reprConcrete()
		}
		return fmt.Sprintf("%d", x.V.Int())
	case StrVal:
		return fmt.Sprintf("%q", x.Concrete())
	case *ListVal:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = Repr(it)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *DictVal:
		return x.reprConcrete()
	case *FuncVal:
		return "<function " + x.Code.Name + ">"
	case *BuiltinVal:
		return "<builtin " + x.Name + ">"
	case *MethodVal:
		return "<builtin " + x.def.name + ">"
	case *ClassVal:
		return "<class " + x.Name + ">"
	case *InstanceVal:
		return "<" + x.Class.Name + " instance>"
	case *ExcInstanceVal:
		return x.Type + "(" + fmt.Sprintf("%q", x.Msg.Concrete()) + ")"
	default:
		return fmt.Sprintf("<%T>", v)
	}
}
