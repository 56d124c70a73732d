package minipy

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// builtinVals holds the built-in names: functions, exception constructors,
// and the print statement's function form. Every VM shares one BuiltinVal
// per name; the guest never compares or hashes builtins (shallowEqual,
// hashValue).
var builtinVals = map[string]*BuiltinVal{}

func init() {
	fns := map[string]func(vm *VM, args []Value) (Value, *Exc){
		"len":        builtinLen,
		"ord":        builtinOrd,
		"chr":        builtinChr,
		"str":        builtinStr,
		"int":        builtinInt,
		"bool":       builtinBool,
		"range":      builtinRange,
		"xrange":     builtinRange,
		"print":      builtinPrint,
		"abs":        builtinAbs,
		"min":        builtinMinMax(true),
		"max":        builtinMinMax(false),
		"isinstance": builtinIsInstance,
		"type":       builtinType,
		"repr":       builtinRepr,
		"list":       builtinList,
		"dict":       builtinDict,
		"sorted":     builtinSorted,
		"sum":        builtinSum,
		"enumerate":  builtinEnumerate,
	}
	for name, fn := range fns {
		builtinVals[name] = &BuiltinVal{Name: name, Fn: fn}
	}
	for typ := range builtinExceptionTypes {
		builtinVals[typ] = &BuiltinVal{Name: typ, Fn: func(vm *VM, args []Value) (Value, *Exc) {
			msg := StrVal{}
			if len(args) > 0 {
				s, e := vm.str(args[0])
				if e != nil {
					return nil, e
				}
				msg = s
			}
			return &ExcInstanceVal{Type: typ, Msg: msg}, nil
		}}
	}
}

func builtinLen(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("len", args, 1, 1); e != nil {
		return nil, e
	}
	switch x := args[0].(type) {
	case StrVal:
		return goInt(int64(x.Len())), nil
	case *ListVal:
		return goInt(int64(len(x.Items))), nil
	case *DictVal:
		return goInt(int64(x.Len())), nil
	}
	return nil, excf("TypeError", "object of type '%s' has no len()", args[0].TypeName())
}

func builtinOrd(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("ord", args, 1, 1); e != nil {
		return nil, e
	}
	s, ok := args[0].(StrVal)
	if !ok || s.Len() != 1 {
		return nil, excf("TypeError", "ord() expected a character")
	}
	return vm.internInt(IntVal{V: lowlevel.ZExtV(s.B[0], symexpr.W64)}), nil
}

func builtinChr(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("chr", args, 1, 1); e != nil {
		return nil, e
	}
	iv, e := argInt("chr", args, 0)
	if e != nil {
		return nil, e
	}
	if iv.Big != nil {
		return nil, excf("ValueError", "chr() arg not in range(256)")
	}
	inRange := lowlevel.BoolAndV(
		lowlevel.SleV(c64(0), iv.V),
		lowlevel.SltV(iv.V, c64(256)),
	)
	if !vm.m.Branch(llpcBuiltinChr, inRange) {
		return nil, excf("ValueError", "chr() arg not in range(256)")
	}
	b := lowlevel.TruncV(iv.V, symexpr.W8)
	return StrVal{B: []lowlevel.SVal{interp.InternByte(vm.m, vm.cfg, b, llpcStrCharIntern)}}, nil
}

func builtinStr(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("str", args, 0, 1); e != nil {
		return nil, e
	}
	if len(args) == 0 {
		return MkStr(""), nil
	}
	return vm.str(args[0])
}

// builtinInt implements int(x) and int(str): digit-by-digit parsing with
// validity branches, as the CPython strtol path does.
func builtinInt(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("int", args, 1, 1); e != nil {
		return nil, e
	}
	switch x := args[0].(type) {
	case IntVal:
		return x, nil
	case BoolVal:
		return IntVal{V: lowlevel.ZExtV(x.B, symexpr.W64)}, nil
	case StrVal:
		s := vm.strStrip(x, 3)
		if s.Len() == 0 {
			return nil, excf("ValueError", "invalid literal for int(): '%s'", x.Concrete())
		}
		neg := false
		i := 0
		// The sign check must branch on symbolic bytes, exactly like the
		// interpreter's strtol does; treating symbolic signs as non-signs
		// would diverge from vanilla semantics.
		if vm.m.Branch(llpcBuiltinInt, lowlevel.EqV(s.B[0], c8v('-'))) {
			neg = true
			i = 1
		} else if vm.m.Branch(llpcBuiltinInt, lowlevel.EqV(s.B[0], c8v('+'))) {
			i = 1
		}
		if i == 1 && s.Len() == 1 {
			return nil, excf("ValueError", "invalid literal for int(): '%s'", x.Concrete())
		}
		acc := c64(0)
		for ; i < s.Len(); i++ {
			vm.m.Step(1)
			b := s.B[i]
			if !vm.m.Branch(llpcBuiltinInt, isDigitExpr(b)) {
				return nil, excf("ValueError", "invalid literal for int(): '%s'", x.Concrete())
			}
			d := lowlevel.SubV(lowlevel.ZExtV(b, symexpr.W64), c64('0'))
			acc = lowlevel.AddV(lowlevel.MulV(acc, c64(10)), d)
		}
		if neg {
			acc = lowlevel.NegV(acc)
		}
		if vm.smallFits(acc) {
			return vm.internInt(IntVal{V: acc}), nil
		}
		return IntVal{Big: vm.bigFromSmall(acc)}, nil
	}
	return nil, excf("TypeError", "int() argument must be a string or a number, not '%s'", args[0].TypeName())
}

func builtinBool(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("bool", args, 1, 1); e != nil {
		return nil, e
	}
	t, e := vm.truth(args[0])
	if e != nil {
		return nil, e
	}
	return boolValue(t), nil
}

func builtinRange(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("range", args, 1, 3); e != nil {
		return nil, e
	}
	vals := make([]lowlevel.SVal, len(args))
	for i := range args {
		iv, e := argInt("range", args, i)
		if e != nil {
			return nil, e
		}
		if iv.Big != nil {
			return nil, excf("OverflowError", "range() result has too many items")
		}
		vals[i] = iv.V
	}
	switch len(args) {
	case 1:
		return &rangeIter{cur: c64(0), stop: vals[0], step: 1}, nil
	case 2:
		return &rangeIter{cur: vals[0], stop: vals[1], step: 1}, nil
	default:
		step := vals[2]
		if step.IsSymbolic() {
			return nil, excf("ValueError", "range() step must be concrete in MiniPy")
		}
		if step.Int() == 0 {
			return nil, excf("ValueError", "range() arg 3 must not be zero")
		}
		return &rangeIter{cur: vals[0], stop: vals[1], step: step.Int()}, nil
	}
}

func builtinPrint(vm *VM, args []Value) (Value, *Exc) {
	line := ""
	for i, a := range args {
		if i > 0 {
			line += " "
		}
		s, e := vm.str(a)
		if e != nil {
			return nil, e
		}
		line += s.Concrete()
	}
	vm.printed = append(vm.printed, line)
	return None, nil
}

func builtinAbs(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("abs", args, 1, 1); e != nil {
		return nil, e
	}
	iv, e := argInt("abs", args, 0)
	if e != nil {
		return nil, e
	}
	if iv.Big != nil {
		return IntVal{Big: &BigInt{Neg: false, D: iv.Big.D}}, nil
	}
	if vm.m.Branch(llpcIntSign, lowlevel.SltV(iv.V, c64(0))) {
		return vm.negate(iv)
	}
	return iv, nil
}

func builtinMinMax(isMin bool) func(vm *VM, args []Value) (Value, *Exc) {
	name := "max"
	if isMin {
		name = "min"
	}
	return func(vm *VM, args []Value) (Value, *Exc) {
		items := args
		if len(args) == 1 {
			lst, ok := args[0].(*ListVal)
			if !ok {
				return nil, excf("TypeError", "%s() arg must be a list or multiple values", name)
			}
			items = lst.Items
		}
		if len(items) == 0 {
			return nil, excf("ValueError", "%s() arg is an empty sequence", name)
		}
		best := items[0]
		for _, it := range items[1:] {
			kind := cmpLt
			if !isMin {
				kind = cmpGt
			}
			cv, e := vm.compare(kind, it, best)
			if e != nil {
				return nil, e
			}
			take, e := vm.branchTruth(cv)
			if e != nil {
				return nil, e
			}
			if take {
				best = it
			}
		}
		return best, nil
	}
}

func builtinIsInstance(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("isinstance", args, 2, 2); e != nil {
		return nil, e
	}
	switch want := args[1].(type) {
	case *BuiltinVal:
		// Built-in type names used as type objects: str, int, list, dict.
		switch want.Name {
		case "str":
			_, ok := args[0].(StrVal)
			return goBool(ok), nil
		case "int":
			_, ok := asInt(args[0])
			return goBool(ok), nil
		case "list":
			_, ok := args[0].(*ListVal)
			return goBool(ok), nil
		case "dict":
			_, ok := args[0].(*DictVal)
			return goBool(ok), nil
		case "bool":
			_, ok := args[0].(BoolVal)
			return goBool(ok), nil
		}
		if builtinExceptionTypes[want.Name] {
			ev, ok := args[0].(*ExcInstanceVal)
			return goBool(ok && excMatches(ev.Type, want.Name)), nil
		}
		return goBool(false), nil
	case *MethodVal:
		return goBool(false), nil // a builtin that names no type
	case *ClassVal:
		inst, ok := args[0].(*InstanceVal)
		return goBool(ok && inst.Class.isSubclassOf(want.Name)), nil
	}
	return nil, excf("TypeError", "isinstance() arg 2 must be a type")
}

func builtinType(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("type", args, 1, 1); e != nil {
		return nil, e
	}
	return MkStr(args[0].TypeName()), nil
}

func builtinRepr(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("repr", args, 1, 1); e != nil {
		return nil, e
	}
	return MkStr(Repr(args[0])), nil
}

func builtinList(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("list", args, 0, 1); e != nil {
		return nil, e
	}
	if len(args) == 0 {
		return &ListVal{}, nil
	}
	switch x := args[0].(type) {
	case *ListVal:
		return &ListVal{Items: append([]Value(nil), x.Items...)}, nil
	case StrVal:
		out := &ListVal{}
		for i := 0; i < x.Len(); i++ {
			out.Items = append(out.Items, vm.strIndexChar(x, i))
		}
		return out, nil
	case *DictVal:
		return &ListVal{Items: x.dictKeys()}, nil
	}
	return nil, excf("TypeError", "list() argument must be iterable")
}

func builtinDict(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("dict", args, 0, 0); e != nil {
		return nil, e
	}
	return NewDict(), nil
}

// builtinSorted returns a new sorted list, using the interpreter's own
// comparison routines (so symbolic elements branch like any comparison).
func builtinSorted(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("sorted", args, 1, 1); e != nil {
		return nil, e
	}
	var items []Value
	switch x := args[0].(type) {
	case *ListVal:
		items = append(items, x.Items...)
	case *DictVal:
		items = append(items, x.dictKeys()...)
	case StrVal:
		for i := 0; i < x.Len(); i++ {
			items = append(items, vm.strIndexChar(x, i))
		}
	default:
		return nil, excf("TypeError", "'%s' object is not iterable", args[0].TypeName())
	}
	// Insertion sort via the interpreter's compare — stable and branch-exact.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0; j-- {
			vm.m.Step(1)
			cv, e := vm.compare(cmpLt, items[j], items[j-1])
			if e != nil {
				return nil, e
			}
			less, e := vm.branchTruth(cv)
			if e != nil {
				return nil, e
			}
			if !less {
				break
			}
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	return &ListVal{Items: items}, nil
}

// builtinSum adds the elements of a list of ints.
func builtinSum(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("sum", args, 1, 1); e != nil {
		return nil, e
	}
	lst, ok := args[0].(*ListVal)
	if !ok {
		return nil, excf("TypeError", "sum() argument must be a list")
	}
	var acc Value = MkInt(0)
	for _, it := range lst.Items {
		v, e := vm.binary(binAdd, acc, it)
		if e != nil {
			return nil, e
		}
		acc = v
	}
	return acc, nil
}

// builtinEnumerate returns [[0, x0], [1, x1], ...].
func builtinEnumerate(vm *VM, args []Value) (Value, *Exc) {
	if e := needArgs("enumerate", args, 1, 1); e != nil {
		return nil, e
	}
	lst, ok := args[0].(*ListVal)
	if !ok {
		return nil, excf("TypeError", "enumerate() argument must be a list")
	}
	out := &ListVal{}
	for i, it := range lst.Items {
		out.Items = append(out.Items, &ListVal{Items: []Value{goInt(int64(i)), it}})
	}
	return out, nil
}
