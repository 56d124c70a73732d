package minipy

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// Native string routines. The ones that the §4.2 switches change are
// written once for both guests in internal/interp; this file wraps them with
// MiniPy's types and LLPCs, and holds the routines only MiniPy has.

func c8v(b byte) lowlevel.SVal { return lowlevel.ConcreteVal(uint64(b), symexpr.W8) }

func strConcat(a, b StrVal) StrVal {
	out := make([]lowlevel.SVal, 0, len(a.B)+len(b.B))
	out = append(out, a.B...)
	out = append(out, b.B...)
	return StrVal{B: out}
}

// strEq returns the equality of two strings as a width-1 value.
func (vm *VM) strEq(a, b StrVal) lowlevel.SVal {
	return interp.StrEq(vm.m, vm.cfg, a.B, b.B, llpcStrEqFast)
}

// strCompare implements all six comparison operators.
func (vm *VM) strCompare(kind int, a, b StrVal) lowlevel.SVal {
	switch kind {
	case cmpEq:
		return vm.strEq(a, b)
	case cmpNe:
		return lowlevel.NotV(vm.strEq(a, b))
	}
	sign := interp.StrCompare(vm.m, a.B, b.B, llpcStrLtByte)
	switch kind {
	case cmpLt:
		return lowlevel.ConcreteBool(sign < 0)
	case cmpLe:
		return lowlevel.ConcreteBool(sign <= 0)
	case cmpGt:
		return lowlevel.ConcreteBool(sign > 0)
	default:
		return lowlevel.ConcreteBool(sign >= 0)
	}
}

// strMatchAt reports whether needle occurs in hay at position pos, as a
// width-1 value.
func (vm *VM) strMatchAt(hay, needle StrVal, pos int) lowlevel.SVal {
	return interp.StrMatchAt(vm.m, vm.cfg, hay.B, needle.B, pos, llpcStrEqFast)
}

// strFind returns the first occurrence of needle in hay at or after start,
// or -1.
func (vm *VM) strFind(hay, needle StrVal, start int) int {
	return interp.StrFind(vm.m, vm.cfg, hay.B, needle.B, start, llpcStrEqFast, llpcStrFindPos)
}

// strIndexChar extracts s[i] as a one-character string, through the
// interning fork of the vanilla interpreter.
func (vm *VM) strIndexChar(s StrVal, i int) StrVal {
	return StrVal{B: []lowlevel.SVal{interp.InternByte(vm.m, vm.cfg, s.B[i], llpcStrCharIntern)}}
}

// strRepeat implements s * n. A symbolic count is an allocation with a
// symbolic size (Fig. 6): the vanilla interpreter forks per feasible size,
// the optimized one asks the solver for an upper bound and pins the size.
func (vm *VM) strRepeat(s StrVal, n IntVal) (Value, *Exc) {
	count, e := vm.allocSize(n, 4096/max(1, len(s.B)))
	if e != nil {
		return nil, e
	}
	out := make([]lowlevel.SVal, 0, count*len(s.B))
	for i := 0; i < count; i++ {
		vm.m.Step(1)
		out = append(out, s.B...)
	}
	return StrVal{B: out}, nil
}

// allocSize turns a possibly-symbolic element count into a concrete
// allocation size (see interp.AllocCount), enforcing a structural cap.
func (vm *VM) allocSize(n IntVal, cap int) (int, *Exc) {
	if n.Big != nil {
		return 0, excf("OverflowError", "repeat count out of range")
	}
	c := max(interp.AllocCount(vm.m, vm.cfg, n.V, llpcStrAllocSize), 0)
	if c > int64(cap) {
		return 0, excf("OverflowError", "repeat count out of range")
	}
	return int(c), nil
}

func (vm *VM) listRepeat(l *ListVal, n IntVal) (Value, *Exc) {
	count, e := vm.allocSize(n, 4096/max(1, len(l.Items)))
	if e != nil {
		return nil, e
	}
	out := make([]Value, 0, count*len(l.Items))
	for i := 0; i < count; i++ {
		vm.m.Step(1)
		out = append(out, l.Items...)
	}
	return &ListVal{Items: out}, nil
}

// charClass tests used by strip/split/isdigit/…; vanilla branches per byte,
// the optimized build keeps the predicate symbolic via Ite-style arithmetic.
func isSpaceExpr(b lowlevel.SVal) lowlevel.SVal {
	sp := lowlevel.EqV(b, c8v(' '))
	for _, c := range []byte{'\t', '\n', '\r'} {
		sp = lowlevel.BoolOrV(sp, lowlevel.EqV(b, c8v(c)))
	}
	return sp
}

func isDigitExpr(b lowlevel.SVal) lowlevel.SVal {
	return lowlevel.BoolAndV(lowlevel.UleV(c8v('0'), b), lowlevel.UleV(b, c8v('9')))
}

func isAlphaExpr(b lowlevel.SVal) lowlevel.SVal {
	lower := lowlevel.BoolAndV(lowlevel.UleV(c8v('a'), b), lowlevel.UleV(b, c8v('z')))
	upper := lowlevel.BoolAndV(lowlevel.UleV(c8v('A'), b), lowlevel.UleV(b, c8v('Z')))
	return lowlevel.BoolOrV(lower, upper)
}

// strStrip removes leading/trailing whitespace (mode &1: left, &2: right).
func (vm *VM) strStrip(s StrVal, mode int) StrVal {
	lo, hi := 0, len(s.B)
	if mode&1 != 0 {
		for lo < hi {
			vm.m.Step(1)
			if !vm.m.Branch(llpcStrStrip, isSpaceExpr(s.B[lo])) {
				break
			}
			lo++
		}
	}
	if mode&2 != 0 {
		for hi > lo {
			vm.m.Step(1)
			if !vm.m.Branch(llpcStrStrip, isSpaceExpr(s.B[hi-1])) {
				break
			}
			hi--
		}
	}
	return StrVal{B: append([]lowlevel.SVal(nil), s.B[lo:hi]...)}
}

// strSplit splits on a separator; empty separator splits on whitespace runs.
func (vm *VM) strSplit(s, sep StrVal) *ListVal {
	out := &ListVal{}
	if sep.Len() == 0 {
		i := 0
		for i < len(s.B) {
			vm.m.Step(1)
			if vm.m.Branch(llpcStrSplit, isSpaceExpr(s.B[i])) {
				i++
				continue
			}
			j := i
			for j < len(s.B) {
				vm.m.Step(1)
				if vm.m.Branch(llpcStrSplit, isSpaceExpr(s.B[j])) {
					break
				}
				j++
			}
			out.Items = append(out.Items, StrVal{B: append([]lowlevel.SVal(nil), s.B[i:j]...)})
			i = j
		}
		return out
	}
	start := 0
	for {
		pos := vm.strFind(s, sep, start)
		if pos < 0 {
			out.Items = append(out.Items, StrVal{B: append([]lowlevel.SVal(nil), s.B[start:]...)})
			return out
		}
		out.Items = append(out.Items, StrVal{B: append([]lowlevel.SVal(nil), s.B[start:pos]...)})
		start = pos + sep.Len()
	}
}

// strReplace substitutes every occurrence of old with new.
func (vm *VM) strReplace(s, old, new StrVal) StrVal {
	if old.Len() == 0 {
		return s
	}
	var out []lowlevel.SVal
	start := 0
	for {
		pos := vm.strFind(s, old, start)
		vm.m.Step(1)
		if pos < 0 {
			out = append(out, s.B[start:]...)
			return StrVal{B: out}
		}
		out = append(out, s.B[start:pos]...)
		out = append(out, new.B...)
		start = pos + old.Len()
	}
}

// strRFind returns the last occurrence of needle in hay, or -1, scanning
// positions from the end with the same per-position branch structure as
// strFind.
func (vm *VM) strRFind(hay, needle StrVal) int {
	for pos := len(hay.B) - len(needle.B); pos >= 0; pos-- {
		vm.m.Step(1)
		if vm.m.Branch(llpcStrFindPos, vm.strMatchAt(hay, needle, pos)) {
			return pos
		}
	}
	return -1
}

// strPad pads s with fill to width n (left = pad on the left, for
// rjust/zfill).
func (vm *VM) strPad(s StrVal, n int, fill byte, left bool) StrVal {
	if n <= s.Len() {
		return s
	}
	if n > 4096 {
		n = 4096
	}
	pad := make([]lowlevel.SVal, n-s.Len())
	for i := range pad {
		pad[i] = c8v(fill)
	}
	if left {
		return strConcat(StrVal{B: pad}, s)
	}
	return strConcat(s, StrVal{B: pad})
}

// strCount counts non-overlapping occurrences.
func (vm *VM) strCount(s, sub StrVal) int {
	if sub.Len() == 0 {
		return s.Len() + 1
	}
	n, start := 0, 0
	for {
		pos := vm.strFind(s, sub, start)
		if pos < 0 {
			return n
		}
		n++
		start = pos + sub.Len()
	}
}

// strCaseMap implements lower() and upper().
func (vm *VM) strCaseMap(s StrVal, toLower bool) StrVal {
	return StrVal{B: interp.StrCaseMap(vm.m, vm.cfg, s.B, toLower, llpcStrIsAlpha)}
}

// strClassAll reports whether every byte satisfies the class predicate
// (isdigit/isalpha/isspace); empty strings are false, as in Python.
func (vm *VM) strClassAll(s StrVal, pred func(lowlevel.SVal) lowlevel.SVal, llpc lowlevel.LLPC) lowlevel.SVal {
	if s.Len() == 0 {
		return lowlevel.ConcreteBool(false)
	}
	if vm.cfg.FastPathElimination {
		acc := lowlevel.ConcreteBool(true)
		for _, b := range s.B {
			vm.m.Step(1)
			acc = lowlevel.BoolAndV(acc, pred(b))
		}
		return acc
	}
	for _, b := range s.B {
		vm.m.Step(1)
		if !vm.m.Branch(llpc, pred(b)) {
			return lowlevel.ConcreteBool(false)
		}
	}
	return lowlevel.ConcreteBool(true)
}

// strJoin joins list items with s as separator.
func (vm *VM) strJoin(s StrVal, items *ListVal) (Value, *Exc) {
	var out []lowlevel.SVal
	for i, it := range items.Items {
		sv, ok := it.(StrVal)
		if !ok {
			return nil, excf("TypeError", "sequence item %d: expected string, %s found", i, it.TypeName())
		}
		if i > 0 {
			out = append(out, s.B...)
		}
		out = append(out, sv.B...)
		vm.m.Step(1)
	}
	return StrVal{B: out}, nil
}

// strFormat implements the single-verb "%s"/"%d" formatting used by the
// packages.
func (vm *VM) strFormat(format StrVal, arg Value) (Value, *Exc) {
	var out []lowlevel.SVal
	i := 0
	used := false
	for i < len(format.B) {
		b := format.B[i]
		if !b.IsSymbolic() && byte(b.C) == '%' && i+1 < len(format.B) && !format.B[i+1].IsSymbolic() {
			verb := byte(format.B[i+1].C)
			switch verb {
			case 's', 'd':
				if used {
					return nil, excf("TypeError", "not enough arguments for format string")
				}
				sv, e := vm.str(arg)
				if e != nil {
					return nil, e
				}
				out = append(out, sv.B...)
				used = true
				i += 2
				continue
			case '%':
				out = append(out, c8v('%'))
				i += 2
				continue
			}
		}
		out = append(out, b)
		i++
	}
	return StrVal{B: out}, nil
}

// smallToStr converts a small int to decimal, with the digit-count loop
// branching per iteration on symbolic values.
func (vm *VM) smallToStr(v lowlevel.SVal) StrVal {
	neg := vm.m.Branch(llpcIntSign, lowlevel.SltV(v, c64(0)))
	mag := v
	if neg {
		mag = lowlevel.NegV(v)
	}
	var digits []lowlevel.SVal
	for i := 0; i < 20; i++ {
		vm.m.Step(1)
		digits = append(digits, lowlevel.TruncV(lowlevel.AddV(lowlevel.URemV(mag, c64(10)), c64('0')), symexpr.W8))
		mag = lowlevel.UDivV(mag, c64(10))
		if !vm.m.Branch(llpcBigToStrLoop, lowlevel.NeV(mag, c64(0))) {
			break
		}
	}
	var out []lowlevel.SVal
	if neg {
		out = append(out, c8v('-'))
	}
	for i := len(digits) - 1; i >= 0; i-- {
		out = append(out, digits[i])
	}
	return StrVal{B: out}
}

// str renders any value as a string, like CPython's str().
func (vm *VM) str(v Value) (StrVal, *Exc) {
	switch x := v.(type) {
	case StrVal:
		return x, nil
	case NoneVal:
		return MkStr("None"), nil
	case BoolVal:
		if vm.m.Branch(llpcBoolTruth, x.B) {
			return MkStr("True"), nil
		}
		return MkStr("False"), nil
	case IntVal:
		if x.Big != nil {
			return vm.bigToStr(x.Big), nil
		}
		return vm.smallToStr(x.V), nil
	case *ListVal:
		out := MkStr("[")
		for i, it := range x.Items {
			if i > 0 {
				out = strConcat(out, MkStr(", "))
			}
			// As in Python, container elements render with repr: strings
			// are quoted.
			if sv, ok := it.(StrVal); ok {
				out = strConcat(out, strConcat(MkStr("'"), strConcat(sv, MkStr("'"))))
				continue
			}
			s, e := vm.str(it)
			if e != nil {
				return StrVal{}, e
			}
			out = strConcat(out, s)
		}
		return strConcat(out, MkStr("]")), nil
	case *ExcInstanceVal:
		return x.Msg, nil
	case *InstanceVal:
		if m, ok := x.Class.lookup("__str__"); ok {
			bound := &FuncVal{Code: m.Code, Defaults: m.Defaults, Self: x, Class: m.Class}
			r, e := vm.callFunc(bound, nil)
			if e != nil {
				return StrVal{}, e
			}
			if rs, ok := r.(StrVal); ok {
				return rs, nil
			}
		}
		return MkStr("<" + x.Class.Name + " instance>"), nil
	default:
		return MkStr(Repr(v)), nil
	}
}
