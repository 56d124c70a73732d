package minipy

import (
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// binary dispatches an arithmetic operator over the operand types, exactly
// like the interpreter's BINARY_* handlers.
func (vm *VM) binary(kind int, l, r Value) (Value, *Exc) {
	vm.m.Step(1)
	// int op int (bools coerce to ints, as in Python)
	li, lok := asInt(l)
	ri, rok := asInt(r)
	if lok && rok {
		return vm.intBinary(kind, li, ri)
	}
	switch kind {
	case binAdd:
		if ls, ok := l.(StrVal); ok {
			if rs, ok := r.(StrVal); ok {
				return strConcat(ls, rs), nil
			}
			return nil, excf("TypeError", "cannot concatenate 'str' and '%s'", r.TypeName())
		}
		if ll, ok := l.(*ListVal); ok {
			if rl, ok := r.(*ListVal); ok {
				items := append(append([]Value{}, ll.Items...), rl.Items...)
				return &ListVal{Items: items}, nil
			}
		}
	case binMul:
		if ls, ok := l.(StrVal); ok && rok {
			return vm.strRepeat(ls, ri)
		}
		if rs, ok := r.(StrVal); ok && lok {
			return vm.strRepeat(rs, li)
		}
		if ll, ok := l.(*ListVal); ok && rok {
			return vm.listRepeat(ll, ri)
		}
	case binMod:
		if ls, ok := l.(StrVal); ok {
			// "fmt" % value — a single %s / %d substitution.
			return vm.strFormat(ls, r)
		}
	}
	return nil, excf("TypeError", "unsupported operand types for %s: '%s' and '%s'",
		binOpName(kind), l.TypeName(), r.TypeName())
}

func binOpName(kind int) string {
	switch kind {
	case binAdd:
		return "+"
	case binSub:
		return "-"
	case binMul:
		return "*"
	case binDiv:
		return "/"
	case binFloorDiv:
		return "//"
	case binMod:
		return "%"
	}
	return "?"
}

// asInt coerces ints and bools to IntVal.
func asInt(v Value) (IntVal, bool) {
	switch x := v.(type) {
	case IntVal:
		return x, true
	case BoolVal:
		return IntVal{V: lowlevel.ZExtV(x.B, symexpr.W64)}, true
	}
	return IntVal{}, false
}

// intBinary implements integer arithmetic with CPython's small/long split:
// small results that overflow the 32-bit range promote to digit-vector
// bignums, and results pass through the small-integer interning cache unless
// the symbolic-pointer optimization disables it.
func (vm *VM) intBinary(kind int, a, b IntVal) (Value, *Exc) {
	if a.Big != nil || b.Big != nil {
		return vm.bigBinary(kind, vm.toBig(a), vm.toBig(b))
	}
	switch kind {
	case binAdd, binSub, binMul:
		var r lowlevel.SVal
		switch kind {
		case binAdd:
			r = lowlevel.AddV(a.V, b.V)
		case binSub:
			r = lowlevel.SubV(a.V, b.V)
		default:
			r = lowlevel.MulV(a.V, b.V)
		}
		if vm.smallFits(r) {
			return vm.internInt(IntVal{V: r}), nil
		}
		return vm.bigBinary(kind, vm.toBig(a), vm.toBig(b))
	case binDiv, binFloorDiv:
		q, _, e := vm.intDivMod(a.V, b.V)
		if e != nil {
			return nil, e
		}
		return vm.internInt(IntVal{V: q}), nil
	case binMod:
		_, r, e := vm.intDivMod(a.V, b.V)
		if e != nil {
			return nil, e
		}
		return vm.internInt(IntVal{V: r}), nil
	}
	return nil, excf("TypeError", "bad int operator")
}

// toBig promotes an IntVal to bignum form.
func (vm *VM) toBig(v IntVal) *BigInt {
	if v.Big != nil {
		return v.Big
	}
	return vm.bigFromSmall(v.V)
}

// fromBig demotes when possible, as CPython normalizes small longs.
func (vm *VM) fromBig(b *BigInt) Value {
	if v, ok := vm.bigToSmall(b); ok && vm.smallFits(v) {
		return vm.internInt(IntVal{V: v})
	}
	return IntVal{Big: b}
}

func (vm *VM) bigBinary(kind int, a, b *BigInt) (Value, *Exc) {
	switch kind {
	case binAdd:
		return vm.fromBig(vm.bigAdd(a, b)), nil
	case binSub:
		return vm.fromBig(vm.bigSub(a, b)), nil
	case binMul:
		return vm.fromBig(vm.bigMul(a, b)), nil
	case binDiv, binFloorDiv, binMod:
		// Long division requires a concrete small divisor; concretize it the
		// way CHEF's guest would for an intractable operation.
		sv, ok := vm.bigToSmall(b)
		if !ok {
			return nil, excf("OverflowError", "division by huge long not supported")
		}
		div := vm.m.ConcretizeSilent(sv)
		if int64(div) == 0 {
			return nil, excf("ZeroDivisionError", "integer division or modulo by zero")
		}
		if int64(div) < 0 {
			return nil, excf("OverflowError", "negative long divisor not supported")
		}
		q, rem := vm.bigDivModSmall(a, div)
		qb := vm.bigNormalize(&BigInt{Neg: a.Neg, D: q})
		if kind == binMod {
			if a.Neg {
				// Python: remainder takes the divisor's sign.
				if vm.m.Branch(llpcIntSign, lowlevel.NeV(rem, c64(0))) {
					rem = lowlevel.SubV(c64(div), rem)
				}
			}
			return vm.internInt(IntVal{V: rem}), nil
		}
		if a.Neg && vm.m.Branch(llpcIntSign, lowlevel.NeV(rem, c64(0))) {
			qb = vm.bigAdd(qb, &BigInt{Neg: true, D: []lowlevel.SVal{c64(1)}})
		}
		return vm.fromBig(qb), nil
	}
	return nil, excf("TypeError", "bad long operator")
}

// intDivMod implements Python floor division and modulo on small ints, with
// the divisor-zero check and the sign-adjustment branches the interpreter
// performs.
func (vm *VM) intDivMod(a, b lowlevel.SVal) (q, r lowlevel.SVal, exc *Exc) {
	if vm.m.Branch(llpcIntDivZero, lowlevel.EqV(b, c64(0))) {
		return q, r, excf("ZeroDivisionError", "integer division or modulo by zero")
	}
	zero := c64(0)
	na := vm.m.Branch(llpcIntSign, lowlevel.SltV(a, zero))
	nb := vm.m.Branch(llpcIntSign, lowlevel.SltV(b, zero))
	am, bm := a, b
	if na {
		am = lowlevel.NegV(a)
	}
	if nb {
		bm = lowlevel.NegV(b)
	}
	qm := lowlevel.UDivV(am, bm)
	rm := lowlevel.URemV(am, bm)
	if na == nb {
		q = qm
		if na {
			r = lowlevel.NegV(rm)
			// Python: r sign follows divisor; for both negative, r <= 0. ✓
		} else {
			r = rm
		}
		return q, r, nil
	}
	// Signs differ: floor rounds away from zero when a remainder exists.
	if vm.m.Branch(llpcIntSign, lowlevel.NeV(rm, zero)) {
		q = lowlevel.NegV(lowlevel.AddV(qm, c64(1)))
		r = lowlevel.SubV(bm, rm)
		if nb {
			r = lowlevel.NegV(r)
		}
	} else {
		q = lowlevel.NegV(qm)
		r = zero
	}
	return q, r, nil
}

// internInt models CPython's small-integer cache: when interning is active
// (the vanilla interpreter) a symbolic value in the cached range becomes a
// lookup at a symbolic table index — a symbolic pointer, which the engine
// must resolve by forking per feasible value. The symbolic-pointer
// optimization (§4.2) removes the cache.
func (vm *VM) internInt(v IntVal) Value {
	if vm.cfg.AvoidSymbolicPointers || !v.V.IsSymbolic() {
		return intValue(v)
	}
	inRange := lowlevel.BoolAndV(
		lowlevel.SleV(c64(^uint64(4)), v.V), // -5 <= v (two's complement)
		lowlevel.SltV(v.V, c64(257)),
	)
	if vm.m.Branch(llpcIntIntern, inRange) {
		c := vm.m.ConcretizeFork(llpcIntIntern+1000, v.V)
		return goInt(int64(c))
	}
	return v
}

// negate implements unary minus.
func (vm *VM) negate(v Value) (Value, *Exc) {
	i, ok := asInt(v)
	if !ok {
		return nil, excf("TypeError", "bad operand type for unary -: '%s'", v.TypeName())
	}
	if i.Big != nil {
		return IntVal{Big: vm.bigNeg(i.Big)}, nil
	}
	r := lowlevel.NegV(i.V)
	if vm.smallFits(r) {
		return vm.internInt(IntVal{V: r}), nil
	}
	return IntVal{Big: vm.bigFromSmall(r)}, nil
}

// compare dispatches comparison operators.
func (vm *VM) compare(kind int, l, r Value) (Value, *Exc) {
	vm.m.Step(1)
	switch kind {
	case cmpIn, cmpNotIn:
		b, e := vm.contains(r, l)
		if e != nil {
			return nil, e
		}
		if kind == cmpNotIn {
			b = lowlevel.NotV(b)
		}
		return boolValue(b), nil
	}
	li, lok := asInt(l)
	ri, rok := asInt(r)
	if lok && rok {
		return boolValue(vm.intCompare(kind, li, ri)), nil
	}
	ls, lsok := l.(StrVal)
	rs, rsok := r.(StrVal)
	if lsok && rsok {
		return boolValue(vm.strCompare(kind, ls, rs)), nil
	}
	ll, llok := l.(*ListVal)
	rl, rlok := r.(*ListVal)
	if llok && rlok && (kind == cmpEq || kind == cmpNe) {
		b, e := vm.listEq(ll, rl)
		if e != nil {
			return nil, e
		}
		if kind == cmpNe {
			b = lowlevel.NotV(b)
		}
		return boolValue(b), nil
	}
	// Cross-type and identity-style comparisons.
	switch kind {
	case cmpEq:
		return goBool(vm.shallowEqual(l, r)), nil
	case cmpNe:
		return goBool(!vm.shallowEqual(l, r)), nil
	}
	return nil, excf("TypeError", "unorderable types: %s and %s", l.TypeName(), r.TypeName())
}

// shallowEqual covers cross-type == (always false in MiniPy, as in Python
// for distinct types) and reference equality for containers.
func (vm *VM) shallowEqual(l, r Value) bool {
	if _, ok := l.(NoneVal); ok {
		_, ok2 := r.(NoneVal)
		return ok2
	}
	if _, ok := r.(NoneVal); ok {
		return false
	}
	if ld, ok := l.(*DictVal); ok {
		rd, ok2 := r.(*DictVal)
		return ok2 && ld == rd
	}
	if ll, ok := l.(*ListVal); ok {
		rl, ok2 := r.(*ListVal)
		return ok2 && ll == rl
	}
	if li, ok := l.(*InstanceVal); ok {
		ri, ok2 := r.(*InstanceVal)
		return ok2 && li == ri
	}
	return false
}

func (vm *VM) intCompare(kind int, a, b IntVal) lowlevel.SVal {
	if a.Big != nil || b.Big != nil {
		c := vm.bigCmp(vm.toBig(a), vm.toBig(b))
		switch kind {
		case cmpEq:
			return lowlevel.ConcreteBool(c == 0)
		case cmpNe:
			return lowlevel.ConcreteBool(c != 0)
		case cmpLt:
			return lowlevel.ConcreteBool(c < 0)
		case cmpLe:
			return lowlevel.ConcreteBool(c <= 0)
		case cmpGt:
			return lowlevel.ConcreteBool(c > 0)
		default:
			return lowlevel.ConcreteBool(c >= 0)
		}
	}
	switch kind {
	case cmpEq:
		return lowlevel.EqV(a.V, b.V)
	case cmpNe:
		return lowlevel.NeV(a.V, b.V)
	case cmpLt:
		return lowlevel.SltV(a.V, b.V)
	case cmpLe:
		return lowlevel.SleV(a.V, b.V)
	case cmpGt:
		return lowlevel.SltV(b.V, a.V)
	default:
		return lowlevel.SleV(b.V, a.V)
	}
}

// contains implements `x in container`.
func (vm *VM) contains(container, x Value) (lowlevel.SVal, *Exc) {
	switch c := container.(type) {
	case StrVal:
		xs, ok := x.(StrVal)
		if !ok {
			return lowlevel.SVal{}, excf("TypeError", "'in <string>' requires string operand")
		}
		pos := vm.strFind(c, xs, 0)
		return lowlevel.ConcreteBool(pos >= 0), nil
	case *ListVal:
		for _, it := range c.Items {
			eq, e := vm.valuesEqualBranch(it, x)
			if e != nil {
				return lowlevel.SVal{}, e
			}
			if eq {
				return lowlevel.ConcreteBool(true), nil
			}
		}
		return lowlevel.ConcreteBool(false), nil
	case *DictVal:
		_, found, e := vm.dictLookup(c, x)
		if e != nil {
			return lowlevel.SVal{}, e
		}
		return lowlevel.ConcreteBool(found), nil
	}
	return lowlevel.SVal{}, excf("TypeError", "argument of type '%s' is not iterable", container.TypeName())
}

// valuesEqualBranch decides equality of two values, branching on symbolic
// comparisons (used by list membership and dict key scans).
func (vm *VM) valuesEqualBranch(a, b Value) (bool, *Exc) {
	vm.m.Step(1)
	ai, aok := asInt(a)
	bi, bok := asInt(b)
	if aok && bok {
		return vm.m.Branch(llpcIntEq, vm.intCompare(cmpEq, ai, bi)), nil
	}
	as, asok := a.(StrVal)
	bs, bsok := b.(StrVal)
	if asok && bsok {
		return vm.m.Branch(llpcStrEqFinal, vm.strEq(as, bs)), nil
	}
	if _, ok := a.(NoneVal); ok {
		_, ok2 := b.(NoneVal)
		return ok2, nil
	}
	return vm.shallowEqual(a, b), nil
}
