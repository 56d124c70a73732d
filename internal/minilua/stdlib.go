package minilua

import (
	"maps"
	"math"
	"sort"

	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// sortedNames returns the keys of a builtin-function map in sorted order.
// Installation order matters for determinism: library tables are ordinary
// Lua tables whose bucket chains are scanned linearly (with per-entry
// virtual-time steps, and — under hash neutralization — a single shared
// bucket), so installing in Go map iteration order would make per-run step
// counts, and therefore the session's virtual clock, vary between runs.
func sortedNames(m map[string]func(vm *VM, args []Value) (Value, *LuaError)) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// stringMethods resolves s:name(...) against the string library. Every VM
// shares these BuiltinVals, as it shares those of the base library and the
// stdlib tables: the guest never compares or hashes a function value
// (valuesEqual, hashKey), so sharing one is not observable.
var stringMethods = map[string]*BuiltinVal{}

func init() {
	for name, fn := range stringLib {
		stringMethods[name] = &BuiltinVal{Name: "string." + name, Fn: fn}
	}
}

// baseLib holds the base functions, each under its global name.
var baseLib = map[string]*BuiltinVal{
	"print":    {Name: "print", Fn: biPrint},
	"error":    {Name: "error", Fn: biError},
	"pcall":    {Name: "pcall", Fn: biPcall},
	"tostring": {Name: "tostring", Fn: biToString},
	"tonumber": {Name: "tonumber", Fn: biToNumber},
	"type":     {Name: "type", Fn: biType},
	"pairs":    {Name: "pairs", Fn: biPairs},
	"ipairs":   {Name: "ipairs", Fn: biIpairs},
	"assert":   {Name: "assert", Fn: biAssert},
}

// libTables builds the string and table libraries by inserting each
// function under its name, in sorted order, through indexSet: the steps and
// concrete branches this charges depend on the interpreter build.
func (vm *VM) libTables() (str, tbl *TableVal) {
	str = NewTable()
	for _, name := range sortedNames(stringLib) {
		_ = vm.indexSet(str, MkStr(name), stringMethods[name])
	}
	tbl = NewTable()
	for _, name := range sortedNames(tableLib) {
		_ = vm.indexSet(tbl, MkStr(name), &BuiltinVal{Name: "table." + name, Fn: tableLib[name]})
	}
	return str, tbl
}

// stdlibTemplate is the stdlib as libTables leaves it under one
// interp.Config, built once on a throwaway concrete machine, with the steps
// and concrete branches that build charged.
type stdlibTemplate struct {
	// globals holds the base functions, and the template tables under the
	// names that each VM's clones replace them at.
	globals         map[string]Value
	str, tbl        tableTemplate
	steps, branches int64
}

// stdlibTemplates holds the template of each interp.Config.
var stdlibTemplates = new(interp.PerConfig[*stdlibTemplate])

func stdlibFor(cfg interp.Config) *stdlibTemplate {
	return stdlibTemplates.Get(cfg, func(cfg interp.Config) *stdlibTemplate {
		vm := &VM{m: lowlevel.NewConcreteMachine(nil, math.MaxInt64), cfg: cfg}
		str, tbl := vm.libTables()
		t := &stdlibTemplate{
			globals:  map[string]Value{"string": str, "table": tbl},
			str:      newTableTemplate(str),
			tbl:      newTableTemplate(tbl),
			steps:    vm.m.Steps(),
			branches: vm.m.Branches(),
		}
		for name, b := range baseLib {
			t.globals[name] = b
		}
		return t
	})
}

// installStdlib populates the global namespace with MiniLua's standard
// library: the base functions and the string/table libraries the evaluation
// packages rely on. The tables are clones of the config's template, and the
// machine is charged what building them charges: a concrete Branch is only
// a step and a counted branch. An install that would reach the step limit
// runs libTables itself, so the run hangs where it would have.
func (vm *VM) installStdlib() {
	t := stdlibFor(vm.cfg)
	vm.globals = maps.Clone(t.globals)
	if t.steps > vm.m.StepsLeft() {
		vm.globals["string"], vm.globals["table"] = vm.libTables()
		return
	}
	vm.globals["string"], vm.globals["table"] = t.str.clone(), t.tbl.clone()
	vm.m.Step(t.steps)
	vm.m.CountConcreteBranches(t.branches)
}

func biPrint(vm *VM, args []Value) (Value, *LuaError) {
	line := ""
	for i, a := range args {
		if i > 0 {
			line += "\t"
		}
		s, err := biToString(vm, []Value{a})
		if err != nil {
			return nil, err
		}
		line += s.(StrVal).Concrete()
	}
	vm.printed = append(vm.printed, line)
	return Nil, nil
}

func biError(vm *VM, args []Value) (Value, *LuaError) {
	msg := "error"
	if len(args) > 0 {
		if s, ok := args[0].(StrVal); ok {
			msg = s.Concrete()
		} else {
			msg = Repr(args[0])
		}
	}
	return nil, &LuaError{Msg: msg}
}

// biPcall calls its first argument protected. MiniLua's pcall returns a
// table {[1]=ok, [2]=result-or-error} because the VM is single-return (a
// documented deviation from Lua's multiple returns).
func biPcall(vm *VM, args []Value) (Value, *LuaError) {
	if len(args) == 0 {
		return nil, luaErrf("bad argument #1 to 'pcall' (value expected)")
	}
	res := NewTable()
	v, err := vm.call(args[0], args[1:])
	if err != nil {
		res.arr = append(res.arr, MkBool(false), MkStr(err.Msg))
	} else {
		res.arr = append(res.arr, MkBool(true), v)
	}
	return res, nil
}

func biToString(vm *VM, args []Value) (Value, *LuaError) {
	if len(args) == 0 {
		return MkStr("nil"), nil
	}
	switch x := args[0].(type) {
	case StrVal:
		return x, nil
	case IntVal:
		return vm.intToStr(x.V), nil
	case NilVal:
		return MkStr("nil"), nil
	case BoolVal:
		if vm.m.Branch(llpcJumpCond, x.B) {
			return MkStr("true"), nil
		}
		return MkStr("false"), nil
	default:
		return MkStr(Repr(args[0])), nil
	}
}

func biToNumber(vm *VM, args []Value) (Value, *LuaError) {
	if len(args) == 0 {
		return Nil, nil
	}
	switch x := args[0].(type) {
	case IntVal:
		return x, nil
	case StrVal:
		if x.Len() == 0 {
			return Nil, nil
		}
		neg := false
		i := 0
		// Branch on symbolic sign bytes to stay faithful to the concrete
		// interpreter's semantics.
		if vm.m.Branch(llpcToNumber, lowlevel.EqV(x.B[0], c8v('-'))) {
			neg = true
			i = 1
		} else if vm.m.Branch(llpcToNumber, lowlevel.EqV(x.B[0], c8v('+'))) {
			i = 1
		}
		if i == 1 && x.Len() == 1 {
			return Nil, nil
		}
		acc := c64(0)
		for ; i < x.Len(); i++ {
			vm.m.Step(1)
			b := x.B[i]
			isDigit := lowlevel.BoolAndV(lowlevel.UleV(c8v('0'), b), lowlevel.UleV(b, c8v('9')))
			if !vm.m.Branch(llpcToNumber, isDigit) {
				return Nil, nil
			}
			acc = lowlevel.AddV(lowlevel.MulV(acc, c64(10)), lowlevel.SubV(lowlevel.ZExtV(b, symexpr.W64), c64('0')))
		}
		if neg {
			acc = lowlevel.NegV(acc)
		}
		return intValue(acc), nil
	}
	return Nil, nil
}

func biType(vm *VM, args []Value) (Value, *LuaError) {
	if len(args) == 0 {
		return MkStr("nil"), nil
	}
	return MkStr(args[0].TypeName()), nil
}

func biPairs(vm *VM, args []Value) (Value, *LuaError) {
	if len(args) != 1 {
		return nil, luaErrf("bad argument to 'pairs'")
	}
	t, ok := args[0].(*TableVal)
	if !ok {
		return nil, luaErrf("bad argument #1 to 'pairs' (table expected, got %s)", args[0].TypeName())
	}
	return &pairsIter{t: t}, nil
}

func biIpairs(vm *VM, args []Value) (Value, *LuaError) {
	if len(args) != 1 {
		return nil, luaErrf("bad argument to 'ipairs'")
	}
	t, ok := args[0].(*TableVal)
	if !ok {
		return nil, luaErrf("bad argument #1 to 'ipairs' (table expected, got %s)", args[0].TypeName())
	}
	return &ipairsIter{t: t}, nil
}

func biAssert(vm *VM, args []Value) (Value, *LuaError) {
	if len(args) == 0 {
		return nil, luaErrf("assertion failed!")
	}
	if !vm.m.Branch(llpcJumpCond, vm.truth(args[0])) {
		msg := "assertion failed!"
		if len(args) > 1 {
			if s, ok := args[1].(StrVal); ok {
				msg = s.Concrete()
			}
		}
		return nil, &LuaError{Msg: msg}
	}
	return args[0], nil
}

func argStrL(args []Value, i int, fname string) (StrVal, *LuaError) {
	if i >= len(args) {
		return StrVal{}, luaErrf("bad argument #%d to '%s' (string expected, got no value)", i+1, fname)
	}
	s, ok := args[i].(StrVal)
	if !ok {
		return StrVal{}, luaErrf("bad argument #%d to '%s' (string expected, got %s)", i+1, fname, args[i].TypeName())
	}
	return s, nil
}

func argIntL(vm *VM, args []Value, i int, fname string, def int64) (int64, *LuaError) {
	if i >= len(args) {
		return def, nil
	}
	if _, isNil := args[i].(NilVal); isNil {
		return def, nil
	}
	n, ok := args[i].(IntVal)
	if !ok {
		return 0, luaErrf("bad argument #%d to '%s' (number expected, got %s)", i+1, fname, args[i].TypeName())
	}
	if n.V.IsSymbolic() {
		return int64(vm.m.ConcretizeFork(llpcTableArrayIdx+2000, n.V)), nil
	}
	return n.V.Int(), nil
}

var stringLib = map[string]func(vm *VM, args []Value) (Value, *LuaError){
	"len": func(vm *VM, args []Value) (Value, *LuaError) {
		s, err := argStrL(args, 0, "len")
		if err != nil {
			return nil, err
		}
		return goInt(int64(s.Len())), nil
	},
	"sub": func(vm *VM, args []Value) (Value, *LuaError) {
		s, err := argStrL(args, 0, "sub")
		if err != nil {
			return nil, err
		}
		i, err := argIntL(vm, args, 1, "sub", 1)
		if err != nil {
			return nil, err
		}
		j, err := argIntL(vm, args, 2, "sub", -1)
		if err != nil {
			return nil, err
		}
		return vm.strSub(s, int(i), int(j)), nil
	},
	"byte": func(vm *VM, args []Value) (Value, *LuaError) {
		s, err := argStrL(args, 0, "byte")
		if err != nil {
			return nil, err
		}
		i, err := argIntL(vm, args, 1, "byte", 1)
		if err != nil {
			return nil, err
		}
		if i < 1 || int(i) > s.Len() {
			return Nil, nil
		}
		return intValue(lowlevel.ZExtV(s.B[i-1], symexpr.W64)), nil
	},
	"char": func(vm *VM, args []Value) (Value, *LuaError) {
		var out []lowlevel.SVal
		for i := range args {
			n, ok := args[i].(IntVal)
			if !ok {
				return nil, luaErrf("bad argument #%d to 'char'", i+1)
			}
			out = append(out, interp.InternByte(vm.m, vm.cfg, lowlevel.TruncV(n.V, symexpr.W8), llpcStrIntern))
		}
		return StrVal{B: out}, nil
	},
	"rep": func(vm *VM, args []Value) (Value, *LuaError) {
		s, err := argStrL(args, 0, "rep")
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, luaErrf("bad argument #2 to 'rep' (number expected)")
		}
		n, ok := args[1].(IntVal)
		if !ok {
			return nil, luaErrf("bad argument #2 to 'rep' (number expected)")
		}
		return vm.strRep(s, n)
	},
	"find": func(vm *VM, args []Value) (Value, *LuaError) {
		s, err := argStrL(args, 0, "find")
		if err != nil {
			return nil, err
		}
		pat, err := argStrL(args, 1, "find")
		if err != nil {
			return nil, err
		}
		init, err := argIntL(vm, args, 2, "find", 1)
		if err != nil {
			return nil, err
		}
		// MiniLua's find is always plain (no patterns), as the packages use
		// it; position or nil is returned.
		pos := vm.strFindPlain(s, pat, int(init))
		if pos < 0 {
			return Nil, nil
		}
		return goInt(int64(pos)), nil
	},
	"format": func(vm *VM, args []Value) (Value, *LuaError) {
		f, err := argStrL(args, 0, "format")
		if err != nil {
			return nil, err
		}
		var out []lowlevel.SVal
		argi := 1
		i := 0
		for i < f.Len() {
			b := f.B[i]
			if !b.IsSymbolic() && byte(b.C) == '%' && i+1 < f.Len() && !f.B[i+1].IsSymbolic() {
				verb := byte(f.B[i+1].C)
				switch verb {
				case 's', 'd':
					if argi >= len(args) {
						return nil, luaErrf("bad argument #%d to 'format' (no value)", argi+1)
					}
					sv, err := vm.coerceStr(args[argi])
					if err != nil {
						return nil, luaErrf("bad argument #%d to 'format'", argi+1)
					}
					out = append(out, sv.B...)
					argi++
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
	},
	"gsub": func(vm *VM, args []Value) (Value, *LuaError) {
		// Plain (non-pattern) global substitution; returns the new string
		// (MiniLua is single-return, so the count is dropped).
		s, err := argStrL(args, 0, "gsub")
		if err != nil {
			return nil, err
		}
		pat, err := argStrL(args, 1, "gsub")
		if err != nil {
			return nil, err
		}
		rep, err := argStrL(args, 2, "gsub")
		if err != nil {
			return nil, err
		}
		if pat.Len() == 0 {
			return s, nil
		}
		var out []lowlevel.SVal
		start := 1
		for {
			pos := vm.strFindPlain(s, pat, start)
			vm.m.Step(1)
			if pos < 0 {
				out = append(out, s.B[start-1:]...)
				return StrVal{B: out}, nil
			}
			out = append(out, s.B[start-1:pos-1]...)
			out = append(out, rep.B...)
			start = pos + pat.Len()
		}
	},
	"lower": func(vm *VM, args []Value) (Value, *LuaError) {
		s, err := argStrL(args, 0, "lower")
		if err != nil {
			return nil, err
		}
		return vm.strCase(s, true), nil
	},
	"upper": func(vm *VM, args []Value) (Value, *LuaError) {
		s, err := argStrL(args, 0, "upper")
		if err != nil {
			return nil, err
		}
		return vm.strCase(s, false), nil
	},
}

var tableLib = map[string]func(vm *VM, args []Value) (Value, *LuaError){
	"insert": func(vm *VM, args []Value) (Value, *LuaError) {
		if len(args) < 2 {
			return nil, luaErrf("wrong number of arguments to 'insert'")
		}
		t, ok := args[0].(*TableVal)
		if !ok {
			return nil, luaErrf("bad argument #1 to 'insert' (table expected)")
		}
		if len(args) == 2 {
			t.arr = append(t.arr, args[1])
			return Nil, nil
		}
		pos, err := argIntL(vm, args, 1, "insert", 0)
		if err != nil {
			return nil, err
		}
		if pos < 1 || int(pos) > len(t.arr)+1 {
			return nil, luaErrf("bad argument #2 to 'insert' (position out of bounds)")
		}
		i := int(pos) - 1
		t.arr = append(t.arr[:i], append([]Value{args[2]}, t.arr[i:]...)...)
		return Nil, nil
	},
	"remove": func(vm *VM, args []Value) (Value, *LuaError) {
		if len(args) < 1 {
			return nil, luaErrf("wrong number of arguments to 'remove'")
		}
		t, ok := args[0].(*TableVal)
		if !ok {
			return nil, luaErrf("bad argument #1 to 'remove' (table expected)")
		}
		n := t.arrayLen()
		if n == 0 {
			return Nil, nil
		}
		pos, err := argIntL(vm, args, 1, "remove", int64(n))
		if err != nil {
			return nil, err
		}
		if pos < 1 || int(pos) > n {
			return Nil, nil
		}
		v := t.arr[pos-1]
		t.arr = append(t.arr[:pos-1], t.arr[pos:]...)
		return v, nil
	},
	"concat": func(vm *VM, args []Value) (Value, *LuaError) {
		if len(args) < 1 {
			return nil, luaErrf("wrong number of arguments to 'concat'")
		}
		t, ok := args[0].(*TableVal)
		if !ok {
			return nil, luaErrf("bad argument #1 to 'concat' (table expected)")
		}
		sep := StrVal{}
		if len(args) > 1 {
			s, ok := args[1].(StrVal)
			if !ok {
				return nil, luaErrf("bad argument #2 to 'concat' (string expected)")
			}
			sep = s
		}
		var out []lowlevel.SVal
		n := t.arrayLen()
		for i := 0; i < n; i++ {
			vm.m.Step(1)
			if i > 0 {
				out = append(out, sep.B...)
			}
			sv, err := vm.coerceStr(t.arr[i])
			if err != nil {
				return nil, err
			}
			out = append(out, sv.B...)
		}
		return StrVal{B: out}, nil
	},
}
