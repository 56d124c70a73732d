package minilua

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// Host receives the high-level trace, as in minipy.
type Host interface {
	LogPC(hlpc uint64, opcode uint32)
}

type nopHost struct{}

func (nopHost) LogPC(uint64, uint32) {}

// VM interprets compiled MiniLua over a low-level machine — the instrumented
// Lua interpreter of §5.2.
type VM struct {
	prog    *Program
	m       *lowlevel.Machine
	host    Host
	cfg     interp.Config
	globals map[string]Value
	printed []string
	depth   int
}

// NewVM builds a VM.
func NewVM(prog *Program, m *lowlevel.Machine, host Host, cfg interp.Config) *VM {
	if host == nil {
		host = nopHost{}
	}
	vm := &VM{prog: prog, m: m, host: host, cfg: cfg, globals: map[string]Value{}}
	vm.installStdlib()
	return vm
}

// Machine exposes the low-level machine.
func (vm *VM) Machine() *lowlevel.Machine { return vm.m }

// Globals exposes the global table namespace.
func (vm *VM) Globals() map[string]Value { return vm.globals }

// Printed returns print output.
func (vm *VM) Printed() []string { return vm.printed }

// Run executes the main chunk.
func (vm *VM) Run() (Value, *LuaError) {
	return vm.callProto(vm.prog.Main, nil)
}

// CallFunction invokes a global function by name.
func (vm *VM) CallFunction(name string, args []Value) (Value, *LuaError) {
	fn, ok := vm.globals[name]
	if !ok {
		return nil, luaErrf("attempt to call a nil value (global '%s')", name)
	}
	return vm.call(fn, args)
}

const maxCallDepth = 64

func (vm *VM) call(fn Value, args []Value) (Value, *LuaError) {
	vm.m.Step(1)
	switch f := fn.(type) {
	case *FuncVal:
		return vm.callProto(f.Proto, args)
	case *BuiltinVal:
		return f.Fn(vm, args)
	}
	return nil, luaErrf("attempt to call a %s value", fn.TypeName())
}

func (vm *VM) callProto(p *Proto, args []Value) (Value, *LuaError) {
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.depth > maxCallDepth {
		return nil, luaErrf("stack overflow")
	}
	slots := make([]Value, p.NumSlots)
	for i := range slots {
		slots[i] = Nil
	}
	for i := 0; i < p.NumParams && i < len(args); i++ {
		slots[i] = args[i]
	}
	var stack []Value
	push := func(v Value) { stack = append(stack, v) }
	pop := func() Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	ip := 0
	for {
		if ip >= len(p.Instrs) {
			return Nil, nil
		}
		in := p.Instrs[ip]
		vm.host.LogPC(p.HLPCAt(ip), uint32(in.Op))
		vm.m.Step(1)
		ip++
		switch in.Op {
		case OpNop:
		case OpLoadK:
			push(p.Consts[in.Arg])
		case OpLoadNil:
			push(Nil)
		case OpLoadBool:
			push(MkBool(in.Arg != 0))
		case OpGetLocal:
			push(slots[in.Arg])
		case OpSetLocal:
			slots[in.Arg] = pop()
		case OpGetGlobal:
			name := p.Names[in.Arg]
			if v, ok := vm.globals[name]; ok {
				push(v)
			} else {
				push(Nil)
			}
		case OpSetGlobal:
			vm.globals[p.Names[in.Arg]] = pop()
		case OpNewTable:
			push(NewTable())
		case OpGetIndex:
			key := pop()
			tbl := pop()
			v, err := vm.indexGet(tbl, key)
			if err != nil {
				return nil, err
			}
			push(v)
		case OpSetIndex: // stack: value, table, key
			key := pop()
			tbl := pop()
			val := pop()
			if err := vm.indexSet(tbl, key, val); err != nil {
				return nil, err
			}
		case OpSetIndex2: // stack: table, key, value
			val := pop()
			key := pop()
			tbl := pop()
			if err := vm.indexSet(tbl, key, val); err != nil {
				return nil, err
			}
		case OpSetIndexKeep: // stack: table, key, value; table stays
			val := pop()
			key := pop()
			tbl := stack[len(stack)-1]
			if err := vm.indexSet(tbl, key, val); err != nil {
				return nil, err
			}
		case OpAppend: // stack: table, value; table stays
			val := pop()
			tbl, ok := stack[len(stack)-1].(*TableVal)
			if !ok {
				return nil, luaErrf("internal: append to non-table")
			}
			tbl.arr = append(tbl.arr, val)
		case OpGetField:
			tbl := pop()
			v, err := vm.indexGet(tbl, MkStr(p.Names[in.Arg]))
			if err != nil {
				return nil, err
			}
			push(v)
		case OpSelfField:
			obj := pop()
			var method Value
			switch o := obj.(type) {
			case *TableVal:
				mv, err := vm.indexGet(o, MkStr(p.Names[in.Arg]))
				if err != nil {
					return nil, err
				}
				method = mv
			case StrVal:
				mv, ok := vm.stringMethod(p.Names[in.Arg])
				if !ok {
					return nil, luaErrf("attempt to call method '%s' on a string", p.Names[in.Arg])
				}
				method = mv
			default:
				return nil, luaErrf("attempt to index a %s value", obj.TypeName())
			}
			push(method)
			push(obj)
		case OpCall:
			n := int(in.Arg)
			args := make([]Value, n)
			for i := n - 1; i >= 0; i-- {
				args[i] = pop()
			}
			fn := pop()
			v, err := vm.call(fn, args)
			if err != nil {
				return nil, err
			}
			push(v)
		case OpReturn:
			return pop(), nil
		case OpJump:
			ip = int(in.Arg)
		case OpJumpIfNot:
			if !vm.m.Branch(llpcJumpCond, vm.truth(pop())) {
				ip = int(in.Arg)
			}
		case OpJumpIfNotKeep:
			if !vm.m.Branch(llpcJumpCond, vm.truth(stack[len(stack)-1])) {
				ip = int(in.Arg)
			}
		case OpJumpIfKeep:
			if vm.m.Branch(llpcJumpCond, vm.truth(stack[len(stack)-1])) {
				ip = int(in.Arg)
			}
		case OpPop:
			pop()
		case OpBin:
			r := pop()
			l := pop()
			v, err := vm.binop(int(in.Arg), l, r)
			if err != nil {
				return nil, err
			}
			push(v)
		case OpUnm:
			v, ok := pop().(IntVal)
			if !ok {
				return nil, luaErrf("attempt to perform arithmetic on a non-number")
			}
			push(IntVal{lowlevel.NegV(v.V)})
		case OpNot:
			push(BoolVal{lowlevel.NotV(vm.truth(pop()))})
		case OpLen:
			v := pop()
			switch x := v.(type) {
			case StrVal:
				push(MkInt(int64(x.Len())))
			case *TableVal:
				push(MkInt(int64(x.arrayLen())))
			default:
				return nil, luaErrf("attempt to get length of a %s value", v.TypeName())
			}
		case OpConcat:
			r := pop()
			l := pop()
			ls, err := vm.coerceStr(l)
			if err != nil {
				return nil, err
			}
			rs, err := vm.coerceStr(r)
			if err != nil {
				return nil, err
			}
			out := make([]lowlevel.SVal, 0, len(ls.B)+len(rs.B))
			out = append(out, ls.B...)
			out = append(out, rs.B...)
			push(StrVal{B: out})
		case OpForPrep:
			step := pop()
			limit := pop()
			init := pop()
			si, ok := step.(IntVal)
			if !ok || si.V.IsSymbolic() {
				return nil, luaErrf("'for' step must be a concrete number")
			}
			ii, ok := init.(IntVal)
			if !ok {
				return nil, luaErrf("'for' initial value must be a number")
			}
			li, ok := limit.(IntVal)
			if !ok {
				return nil, luaErrf("'for' limit must be a number")
			}
			slots[in.Arg] = IntVal{lowlevel.SubV(ii.V, si.V)}
			slots[in.Arg+1] = li
			slots[in.Arg+2] = si
		case OpForLoop:
			base := in.B
			v := slots[base].(IntVal)
			limit := slots[base+1].(IntVal)
			step := slots[base+2].(IntVal)
			next := lowlevel.AddV(v.V, step.V)
			var cond lowlevel.SVal
			if step.V.Int() > 0 {
				cond = lowlevel.SleV(next, limit.V)
			} else {
				cond = lowlevel.SleV(limit.V, next)
			}
			if vm.m.Branch(llpcForLoop, cond) {
				slots[base] = IntVal{next}
				ip = int(in.Arg)
			}
		case OpTForCall:
			it, ok := slots[in.B].(luaIterator)
			if !ok {
				return nil, luaErrf("attempt to iterate a %s value (use pairs/ipairs)", slots[in.B].TypeName())
			}
			k, v, more := it.next(vm)
			if !more {
				ip = int(in.Arg)
				continue
			}
			push(k)
			push(v)
		case OpClosure:
			pv := p.Consts[in.Arg].(*ProtoVal)
			push(&FuncVal{Proto: pv.Proto})
		default:
			return nil, luaErrf("bad opcode %d", in.Op)
		}
	}
}

// truth implements Lua truthiness: only nil and false are false.
func (vm *VM) truth(v Value) lowlevel.SVal {
	switch x := v.(type) {
	case NilVal:
		return lowlevel.ConcreteBool(false)
	case BoolVal:
		return x.B
	default:
		return lowlevel.ConcreteBool(true)
	}
}

// coerceStr converts numbers to strings for concat.
func (vm *VM) coerceStr(v Value) (StrVal, *LuaError) {
	switch x := v.(type) {
	case StrVal:
		return x, nil
	case IntVal:
		return vm.intToStr(x.V), nil
	}
	return StrVal{}, luaErrf("attempt to concatenate a %s value", v.TypeName())
}

// intToStr converts an integer to decimal with the usual digit-count loop.
func (vm *VM) intToStr(v lowlevel.SVal) StrVal {
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
		if !vm.m.Branch(llpcIntSign, lowlevel.NeV(mag, c64(0))) {
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

// binop implements arithmetic and comparison.
func (vm *VM) binop(kind int, l, r Value) (Value, *LuaError) {
	li, lok := l.(IntVal)
	ri, rok := r.(IntVal)
	switch kind {
	case luaAdd, luaSub, luaMul, luaDiv, luaMod:
		if !lok || !rok {
			// Lua coerces numeric strings; MiniLua requires tonumber().
			return nil, luaErrf("attempt to perform arithmetic on a %s value", nonNumber(l, r))
		}
		switch kind {
		case luaAdd:
			return IntVal{lowlevel.AddV(li.V, ri.V)}, nil
		case luaSub:
			return IntVal{lowlevel.SubV(li.V, ri.V)}, nil
		case luaMul:
			return IntVal{lowlevel.MulV(li.V, ri.V)}, nil
		default:
			q, rem, err := vm.intDivMod(li.V, ri.V)
			if err != nil {
				return nil, err
			}
			if kind == luaDiv {
				return IntVal{q}, nil
			}
			return IntVal{rem}, nil
		}
	case luaEq, luaNe:
		b := vm.valuesEqual(l, r)
		if kind == luaNe {
			b = lowlevel.NotV(b)
		}
		return BoolVal{b}, nil
	default: // ordering
		if lok && rok {
			switch kind {
			case luaLt:
				return BoolVal{lowlevel.SltV(li.V, ri.V)}, nil
			case luaLe:
				return BoolVal{lowlevel.SleV(li.V, ri.V)}, nil
			case luaGt:
				return BoolVal{lowlevel.SltV(ri.V, li.V)}, nil
			default:
				return BoolVal{lowlevel.SleV(ri.V, li.V)}, nil
			}
		}
		ls, lsok := l.(StrVal)
		rs, rsok := r.(StrVal)
		if lsok && rsok {
			return BoolVal{vm.strOrder(kind, ls, rs)}, nil
		}
		return nil, luaErrf("attempt to compare %s with %s", l.TypeName(), r.TypeName())
	}
}

func nonNumber(l, r Value) string {
	if _, ok := l.(IntVal); !ok {
		return l.TypeName()
	}
	return r.TypeName()
}

// intDivMod implements Lua's floor division and modulo on integers.
func (vm *VM) intDivMod(a, b lowlevel.SVal) (lowlevel.SVal, lowlevel.SVal, *LuaError) {
	if vm.m.Branch(llpcIntDivZero, lowlevel.EqV(b, c64(0))) {
		return lowlevel.SVal{}, lowlevel.SVal{}, luaErrf("attempt to perform 'n/0'")
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
		r := rm
		if na {
			r = lowlevel.NegV(rm)
		}
		return qm, r, nil
	}
	if vm.m.Branch(llpcIntSign, lowlevel.NeV(rm, zero)) {
		q := lowlevel.NegV(lowlevel.AddV(qm, c64(1)))
		r := lowlevel.SubV(bm, rm)
		if nb {
			r = lowlevel.NegV(r)
		}
		return q, r, nil
	}
	return lowlevel.NegV(qm), zero, nil
}

// valuesEqual computes == as a width-1 value, branching inside string
// comparison per the fast-path configuration.
func (vm *VM) valuesEqual(l, r Value) lowlevel.SVal {
	li, lok := l.(IntVal)
	ri, rok := r.(IntVal)
	if lok && rok {
		return lowlevel.EqV(li.V, ri.V)
	}
	ls, lsok := l.(StrVal)
	rs, rsok := r.(StrVal)
	if lsok && rsok {
		return vm.strEq(ls, rs)
	}
	lb, lbok := l.(BoolVal)
	rb, rbok := r.(BoolVal)
	if lbok && rbok {
		return lowlevel.EqV(lb.B, rb.B)
	}
	if _, ok := l.(NilVal); ok {
		_, ok2 := r.(NilVal)
		return lowlevel.ConcreteBool(ok2)
	}
	if lt, ok := l.(*TableVal); ok {
		rt, ok2 := r.(*TableVal)
		return lowlevel.ConcreteBool(ok2 && lt == rt)
	}
	return lowlevel.ConcreteBool(false)
}

// valuesEqualBranch resolves equality with a branch (table key scans).
func (vm *VM) valuesEqualBranch(l, r Value) bool {
	return vm.m.Branch(llpcTableKeyCmp, vm.valuesEqual(l, r))
}
