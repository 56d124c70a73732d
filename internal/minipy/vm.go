package minipy

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Host receives the high-level trace of the interpreter — CHEF's log_pc.
// chef.Ctx satisfies it in symbolic sessions; replay uses a coverage
// recorder.
type Host interface {
	LogPC(hlpc uint64, opcode uint32)
}

// nopHost discards the trace (pure concrete runs without coverage).
type nopHost struct{}

func (nopHost) LogPC(uint64, uint32) {}

// VM interprets a compiled MiniPy program over a low-level machine. It is
// the instrumented interpreter of §5.1: the dispatch loop reports HLPCs via
// the host, and every input-dependent internal branch goes through the
// machine's Branch API at a fixed interpreter LLPC.
type VM struct {
	prog    *Program
	m       *lowlevel.Machine
	host    Host
	cfg     interp.Config
	globals map[string]Value
	printed []string
	depth   int
}

// NewVM builds a VM for prog running on machine m with the given
// optimization configuration. host may be nil.
func NewVM(prog *Program, m *lowlevel.Machine, host Host, cfg interp.Config) *VM {
	if host == nil {
		host = nopHost{}
	}
	return &VM{prog: prog, m: m, host: host, cfg: cfg, globals: map[string]Value{}}
}

// Machine exposes the underlying low-level machine.
func (vm *VM) Machine() *lowlevel.Machine { return vm.m }

// Globals exposes the module namespace (to inject symbolic inputs).
func (vm *VM) Globals() map[string]Value { return vm.globals }

// Printed returns the output captured from print calls.
func (vm *VM) Printed() []string { return vm.printed }

// Run executes the module body. The returned Exc is the uncaught exception,
// if any.
func (vm *VM) Run() (Value, *Exc) {
	return vm.runCode(vm.prog.Main, map[string]Value{})
}

// CallFunction invokes a module-level function by name with the given
// arguments (used by symbolic test drivers after Run loaded the module).
func (vm *VM) CallFunction(name string, args []Value) (Value, *Exc) {
	fn, ok := vm.globals[name]
	if !ok {
		return nil, excf("NameError", "name '%s' is not defined", name)
	}
	return vm.call(fn, args)
}

const maxCallDepth = 64

type blockEntry struct {
	isFinally bool
	handler   int
	sp        int
}

type frame struct {
	code   *Code
	locals map[string]Value
	stack  []Value
	blocks []blockEntry
	ip     int
}

func (f *frame) push(v Value) { f.stack = append(f.stack, v) }

func (f *frame) pop() Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func (f *frame) peek() Value { return f.stack[len(f.stack)-1] }

func (vm *VM) runCode(code *Code, locals map[string]Value) (Value, *Exc) {
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.depth > maxCallDepth {
		return nil, excf("RuntimeError", "maximum recursion depth exceeded")
	}
	f := &frame{code: code, locals: locals}
	for {
		if f.ip >= len(code.Instrs) {
			return None, nil
		}
		in := code.Instrs[f.ip]
		vm.host.LogPC(code.HLPCAt(f.ip), uint32(in.Op))
		vm.m.Step(1)
		f.ip++
		ret, exc, done := vm.exec(f, in)
		if exc != nil {
			if !vm.unwind(f, exc) {
				return nil, exc
			}
			continue
		}
		if done {
			return ret, nil
		}
	}
}

// unwind pops frame blocks looking for a handler; it returns false when the
// exception escapes this frame.
func (vm *VM) unwind(f *frame, exc *Exc) bool {
	for len(f.blocks) > 0 {
		blk := f.blocks[len(f.blocks)-1]
		f.blocks = f.blocks[:len(f.blocks)-1]
		f.stack = f.stack[:blk.sp]
		f.push(&ExcInstanceVal{Type: exc.Type, Msg: MkStr(exc.Msg)})
		f.ip = blk.handler
		return true
	}
	return false
}

// exec executes one instruction. done reports an OpReturn.
func (vm *VM) exec(f *frame, in Instr) (ret Value, exc *Exc, done bool) {
	code := f.code
	switch in.Op {
	case OpNop:
	case OpLoadConst:
		f.push(code.Consts[in.Arg])
	case OpLoadName:
		name := code.Names[in.Arg]
		if !code.IsModule && !code.Globals[name] {
			if v, ok := f.locals[name]; ok {
				f.push(v)
				return
			}
		}
		if v, ok := vm.globals[name]; ok {
			f.push(v)
			return
		}
		if v, ok := vm.builtin(name); ok {
			f.push(v)
			return
		}
		return nil, excf("NameError", "name '%s' is not defined", name), false
	case OpStoreName:
		name := code.Names[in.Arg]
		v := f.pop()
		if code.IsModule || code.Globals[name] {
			vm.globals[name] = v
		} else {
			f.locals[name] = v
		}
	case OpDelName:
		name := code.Names[in.Arg]
		if code.IsModule || code.Globals[name] {
			delete(vm.globals, name)
		} else {
			delete(f.locals, name)
		}
	case OpPop:
		f.pop()
	case OpDup:
		f.push(f.peek())
	case OpBinary:
		r := f.pop()
		l := f.pop()
		v, e := vm.binary(int(in.Arg), l, r)
		if e != nil {
			return nil, e, false
		}
		f.push(v)
	case OpCompare:
		r := f.pop()
		l := f.pop()
		v, e := vm.compare(int(in.Arg), l, r)
		if e != nil {
			return nil, e, false
		}
		f.push(v)
	case OpUnaryNeg:
		v, e := vm.negate(f.pop())
		if e != nil {
			return nil, e, false
		}
		f.push(v)
	case OpUnaryNot:
		t, e := vm.truth(f.pop())
		if e != nil {
			return nil, e, false
		}
		f.push(BoolVal{lowlevel.NotV(t)})
	case OpJump:
		f.ip = int(in.Arg)
	case OpJumpIfFalse:
		t, e := vm.truth(f.pop())
		if e != nil {
			return nil, e, false
		}
		if !vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpJumpIfTrue:
		t, e := vm.truth(f.pop())
		if e != nil {
			return nil, e, false
		}
		if vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpJumpIfFalseKeep:
		t, e := vm.truth(f.peek())
		if e != nil {
			return nil, e, false
		}
		if !vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpJumpIfTrueKeep:
		t, e := vm.truth(f.peek())
		if e != nil {
			return nil, e, false
		}
		if vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpCall:
		n := int(in.Arg)
		args := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			args[i] = f.pop()
		}
		fn := f.pop()
		v, e := vm.call(fn, args)
		if e != nil {
			return nil, e, false
		}
		f.push(v)
	case OpReturn:
		return f.pop(), nil, true
	case OpBuildList:
		n := int(in.Arg)
		items := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			items[i] = f.pop()
		}
		f.push(&ListVal{Items: items})
	case OpBuildDict:
		n := int(in.Arg)
		d := NewDict()
		pairs := make([]Value, 2*n)
		for i := 2*n - 1; i >= 0; i-- {
			pairs[i] = f.pop()
		}
		for i := 0; i < n; i++ {
			if e := vm.dictSet(d, pairs[2*i], pairs[2*i+1]); e != nil {
				return nil, e, false
			}
		}
		f.push(d)
	case OpIndex:
		idx := f.pop()
		obj := f.pop()
		v, e := vm.index(obj, idx)
		if e != nil {
			return nil, e, false
		}
		f.push(v)
	case OpStoreIndex:
		idx := f.pop()
		obj := f.pop()
		val := f.pop()
		if e := vm.storeIndex(obj, idx, val); e != nil {
			return nil, e, false
		}
	case OpDelIndex:
		idx := f.pop()
		obj := f.pop()
		if e := vm.delIndex(obj, idx); e != nil {
			return nil, e, false
		}
	case OpSlice:
		var lo, hi Value
		if in.Arg&2 != 0 {
			hi = f.pop()
		}
		if in.Arg&1 != 0 {
			lo = f.pop()
		}
		obj := f.pop()
		v, e := vm.slice(obj, lo, hi)
		if e != nil {
			return nil, e, false
		}
		f.push(v)
	case OpAttr:
		obj := f.pop()
		v, e := vm.getattr(obj, code.Names[in.Arg])
		if e != nil {
			return nil, e, false
		}
		f.push(v)
	case OpStoreAttr:
		obj := f.pop()
		val := f.pop()
		inst, ok := obj.(*InstanceVal)
		if !ok {
			return nil, excf("AttributeError", "cannot set attributes on %s", obj.TypeName()), false
		}
		inst.Attrs[code.Names[in.Arg]] = val
	case OpGetIter:
		it, e := vm.getIter(f.pop())
		if e != nil {
			return nil, e, false
		}
		f.push(it)
	case OpForIter:
		it := f.peek().(iterator)
		v, ok, e := it.next(vm)
		if e != nil {
			return nil, e, false
		}
		if !ok {
			f.ip = int(in.Arg)
			return
		}
		f.push(v)
	case OpUnpack2:
		v := f.pop()
		lst, ok := v.(*ListVal)
		if !ok || len(lst.Items) != 2 {
			return nil, excf("ValueError", "need exactly 2 values to unpack"), false
		}
		f.push(lst.Items[0])
		f.push(lst.Items[1])
	case OpSetupExcept:
		f.blocks = append(f.blocks, blockEntry{handler: int(in.Arg), sp: len(f.stack)})
	case OpSetupFinally:
		f.blocks = append(f.blocks, blockEntry{isFinally: true, handler: int(in.Arg), sp: len(f.stack)})
	case OpPopBlock:
		f.blocks = f.blocks[:len(f.blocks)-1]
	case OpEndFinally:
		// The exception object is on the stack (pushed by unwind).
		ev := f.pop().(*ExcInstanceVal)
		return nil, &Exc{Type: ev.Type, Msg: ev.Msg.Concrete()}, false
	case OpRaise:
		switch in.Arg {
		case 0:
			return nil, excf("RuntimeError", "no active exception to re-raise"), false
		default: // 1: raise value; 2: re-raise unmatched handler exception
			v := f.pop()
			return nil, vm.toException(v), false
		}
	case OpExcMatch:
		ev := f.peek().(*ExcInstanceVal)
		want := code.Names[in.Arg]
		f.push(MkBool(excMatches(ev.Type, want)))
		vm.m.Step(1)
	case OpBindExc:
		ev := f.pop()
		if in.Arg >= 0 {
			name := code.Names[in.Arg]
			if code.IsModule || code.Globals[name] {
				vm.globals[name] = ev
			} else {
				f.locals[name] = ev
			}
		}
	case OpMakeFunc:
		cv := code.Consts[in.Arg].(*CodeVal)
		f.push(&FuncVal{Code: cv.Code, Defaults: cv.Code.Defaults})
	case OpMakeClass:
		spec := code.Consts[in.Arg].(*ClassSpecVal).Spec
		cls := &ClassVal{Name: spec.Name, Methods: map[string]*FuncVal{}, Consts: map[string]Value{}}
		if spec.Base != "" && spec.Base != "object" {
			if bv, ok := vm.globals[spec.Base]; ok {
				if bc, ok := bv.(*ClassVal); ok {
					cls.Base = bc
				}
			}
		}
		for _, mc := range spec.Methods {
			cls.Methods[mc.Name] = &FuncVal{Code: mc, Defaults: mc.Defaults, Class: cls}
		}
		for k, v := range spec.Consts {
			cls.Consts[k] = v
		}
		f.push(cls)
	case OpPrint:
		n := int(in.Arg)
		parts := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			parts[i] = f.pop()
		}
		line := ""
		for i, p := range parts {
			if i > 0 {
				line += " "
			}
			s, e := vm.str(p)
			if e != nil {
				return nil, e, false
			}
			line += s.Concrete()
		}
		vm.printed = append(vm.printed, line)
	default:
		return nil, excf("RuntimeError", "bad opcode %v", in.Op), false
	}
	return
}

// toException converts a raised value to an exception.
func (vm *VM) toException(v Value) *Exc {
	switch x := v.(type) {
	case *ExcInstanceVal:
		return &Exc{Type: x.Type, Msg: x.Msg.Concrete()}
	case *BuiltinVal:
		if builtinExceptionTypes[x.Name] {
			return &Exc{Type: x.Name}
		}
	case StrVal:
		return &Exc{Type: "RuntimeError", Msg: x.Concrete()}
	}
	return excf("TypeError", "exceptions must derive from Exception, not %s", v.TypeName())
}

// call invokes any callable value.
func (vm *VM) call(fn Value, args []Value) (Value, *Exc) {
	vm.m.Step(1)
	switch fv := fn.(type) {
	case *FuncVal:
		return vm.callFunc(fv, args)
	case *BuiltinVal:
		return fv.Fn(vm, args)
	case *ClassVal:
		inst := &InstanceVal{Class: fv, Attrs: map[string]Value{}}
		if init, ok := fv.lookup("__init__"); ok {
			bound := &FuncVal{Code: init.Code, Defaults: init.Defaults, Self: inst, Class: init.Class}
			if _, e := vm.callFunc(bound, args); e != nil {
				return nil, e
			}
		} else if len(args) > 0 {
			return nil, excf("TypeError", "%s() takes no arguments", fv.Name)
		}
		return inst, nil
	}
	return nil, excf("TypeError", "'%s' object is not callable", fn.TypeName())
}

func (vm *VM) callFunc(fv *FuncVal, args []Value) (Value, *Exc) {
	params := fv.Code.Params
	locals := make(map[string]Value, len(params))
	if fv.Self != nil {
		args = append([]Value{fv.Self}, args...)
	}
	required := len(params) - len(fv.Defaults)
	if len(args) < required || len(args) > len(params) {
		return nil, excf("TypeError", "%s() takes %d arguments (%d given)", fv.Code.Name, len(params), len(args))
	}
	for i, p := range params {
		if i < len(args) {
			locals[p] = args[i]
		} else {
			locals[p] = fv.Defaults[i-required]
		}
	}
	return vm.runCode(fv.Code, locals)
}

// truth computes the (possibly symbolic) truth value of v.
func (vm *VM) truth(v Value) (lowlevel.SVal, *Exc) {
	switch x := v.(type) {
	case NoneVal:
		return lowlevel.ConcreteBool(false), nil
	case BoolVal:
		return x.B, nil
	case IntVal:
		if x.Big != nil {
			acc := c64(0)
			for _, d := range x.Big.D {
				acc = lowlevel.OrV(acc, d)
			}
			return lowlevel.NeV(acc, c64(0)), nil
		}
		return lowlevel.NeV(x.V, c64(0)), nil
	case StrVal:
		return lowlevel.ConcreteBool(x.Len() > 0), nil
	case *ListVal:
		return lowlevel.ConcreteBool(len(x.Items) > 0), nil
	case *DictVal:
		return lowlevel.ConcreteBool(x.size > 0), nil
	default:
		return lowlevel.ConcreteBool(true), nil
	}
}

// branchTruth forks on the truth of a value at the generic truthiness site.
func (vm *VM) branchTruth(v Value) (bool, *Exc) {
	t, e := vm.truth(v)
	if e != nil {
		return false, e
	}
	return vm.m.Branch(llpcBoolTruth, t), nil
}
