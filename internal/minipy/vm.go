package minipy

import (
	"maps"
	"slices"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Host receives the high-level trace of the interpreter — CHEF's log_pc.
type Host = interp.Host

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
	// vals holds the locals and then the operand stack of every active
	// frame, innermost on top; frames holds the frame records, reused by
	// call depth. A call takes its storage from both and gives it back when
	// it returns, so once they have grown a call allocates no frame.
	vals   []Value
	frames []*frame
	// While sharedGlobals is set, globals is the map of the image the VM
	// started from, which the VM copies before its first write.
	sharedGlobals bool
}

// NewVM builds a VM for prog running on machine m with the given
// optimization configuration. host may be nil.
func NewVM(prog *Program, m *lowlevel.Machine, host Host, cfg interp.Config) *VM {
	if host == nil {
		host = interp.NopHost{}
	}
	return &VM{prog: prog, m: m, host: host, cfg: cfg, globals: map[string]Value{}}
}

// Printed returns the output captured from print calls.
func (vm *VM) Printed() []string { return vm.printed }

// Run executes the module body. The returned Exc is the uncaught exception,
// if any.
func (vm *VM) Run() (Value, *Exc) {
	return vm.runCode(vm.prog.Main, nil, nil)
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
	sp        int // height of vm.vals when the block was set up
}

// frame is one active code block. No frame outlives its call: MiniPy has no
// closures over locals (docs/LANGUAGES.md), so nothing else reads locals.
type frame struct {
	code   *Code
	locals []Value // the frame's slots in vm.vals, indexed like code.Names
	blocks []blockEntry
	ip     int
}

func (vm *VM) push(v Value) { vm.vals = append(vm.vals, v) }

func (vm *VM) pop() Value {
	n := len(vm.vals) - 1
	v := vm.vals[n]
	vm.vals = vm.vals[:n]
	return v
}

func (vm *VM) peek() Value { return vm.vals[len(vm.vals)-1] }

// runCode runs code in a new frame. fn, when not nil, is the function
// being called, and its parameters are bound from args (which callFunc has
// checked) and its defaults.
func (vm *VM) runCode(code *Code, fn *FuncVal, args []Value) (Value, *Exc) {
	vm.depth++
	base := len(vm.vals)
	defer func() {
		vm.depth--
		vm.vals = vm.vals[:base]
	}()
	if vm.depth > maxCallDepth {
		return nil, excf("RuntimeError", "maximum recursion depth exceeded")
	}
	n := code.numLocals()
	vm.vals = slices.Grow(vm.vals, n)[:base+n]
	locals := vm.vals[base : base+n : base+n]
	clear(locals)
	if fn != nil {
		i := 0
		if fn.Self != nil {
			locals[0] = fn.Self
			i = 1
		}
		i += copy(locals[i:], args)
		required := len(code.Params) - len(fn.Defaults)
		for ; i < len(code.Params); i++ {
			locals[i] = fn.Defaults[i-required]
		}
	}
	for len(vm.frames) < vm.depth {
		vm.frames = append(vm.frames, &frame{})
	}
	f := vm.frames[vm.depth-1]
	f.code, f.locals, f.blocks, f.ip = code, locals, f.blocks[:0], 0
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
		vm.vals = vm.vals[:blk.sp]
		vm.push(&ExcInstanceVal{Type: exc.Type, Msg: MkStr(exc.Msg)})
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
		vm.push(code.Consts[in.Arg])
	case OpLoadName:
		if !code.Global[in.Arg] {
			if v := f.locals[in.Arg]; v != nil {
				vm.push(v)
				return
			}
		}
		name := code.Names[in.Arg]
		if v, ok := vm.globals[name]; ok {
			vm.push(v)
			return
		}
		if v, ok := builtinVals[name]; ok {
			vm.push(v)
			return
		}
		return nil, excf("NameError", "name '%s' is not defined", name), false
	case OpStoreName:
		vm.storeName(f, in.Arg, vm.pop())
	case OpDelName:
		if code.Global[in.Arg] {
			vm.ownGlobals()
			delete(vm.globals, code.Names[in.Arg])
		} else {
			f.locals[in.Arg] = nil
		}
	case OpPop:
		vm.pop()
	case OpDup:
		vm.push(vm.peek())
	case OpBinary:
		r := vm.pop()
		l := vm.pop()
		v, e := vm.binary(int(in.Arg), l, r)
		if e != nil {
			return nil, e, false
		}
		vm.push(v)
	case OpCompare:
		r := vm.pop()
		l := vm.pop()
		v, e := vm.compare(int(in.Arg), l, r)
		if e != nil {
			return nil, e, false
		}
		vm.push(v)
	case OpUnaryNeg:
		v, e := vm.negate(vm.pop())
		if e != nil {
			return nil, e, false
		}
		vm.push(v)
	case OpUnaryNot:
		t, e := vm.truth(vm.pop())
		if e != nil {
			return nil, e, false
		}
		vm.push(boolValue(lowlevel.NotV(t)))
	case OpJump:
		f.ip = int(in.Arg)
	case OpJumpIfFalse:
		t, e := vm.truth(vm.pop())
		if e != nil {
			return nil, e, false
		}
		if !vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpJumpIfTrue:
		t, e := vm.truth(vm.pop())
		if e != nil {
			return nil, e, false
		}
		if vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpJumpIfFalseKeep:
		t, e := vm.truth(vm.peek())
		if e != nil {
			return nil, e, false
		}
		if !vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpJumpIfTrueKeep:
		t, e := vm.truth(vm.peek())
		if e != nil {
			return nil, e, false
		}
		if vm.m.Branch(llpcJumpCond, t) {
			f.ip = int(in.Arg)
		}
	case OpCall:
		// The function and its arguments stay on the stack, below the
		// callee's frame, until the call returns.
		n := int(in.Arg)
		top := len(vm.vals)
		v, e := vm.call(vm.vals[top-n-1], vm.vals[top-n:top:top])
		vm.vals = vm.vals[:top-n-1]
		if e != nil {
			return nil, e, false
		}
		vm.push(v)
	case OpReturn:
		return vm.pop(), nil, true
	case OpBuildList:
		n := int(in.Arg)
		items := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			items[i] = vm.pop()
		}
		vm.push(&ListVal{Items: items})
	case OpBuildDict:
		n := int(in.Arg)
		d := NewDict()
		pairs := make([]Value, 2*n)
		for i := 2*n - 1; i >= 0; i-- {
			pairs[i] = vm.pop()
		}
		for i := 0; i < n; i++ {
			if e := vm.dictSet(d, pairs[2*i], pairs[2*i+1]); e != nil {
				return nil, e, false
			}
		}
		vm.push(d)
	case OpIndex:
		idx := vm.pop()
		obj := vm.pop()
		v, e := vm.index(obj, idx)
		if e != nil {
			return nil, e, false
		}
		vm.push(v)
	case OpStoreIndex:
		idx := vm.pop()
		obj := vm.pop()
		val := vm.pop()
		if e := vm.storeIndex(obj, idx, val); e != nil {
			return nil, e, false
		}
	case OpDelIndex:
		idx := vm.pop()
		obj := vm.pop()
		if e := vm.delIndex(obj, idx); e != nil {
			return nil, e, false
		}
	case OpSlice:
		var lo, hi Value
		if in.Arg&2 != 0 {
			hi = vm.pop()
		}
		if in.Arg&1 != 0 {
			lo = vm.pop()
		}
		obj := vm.pop()
		v, e := vm.slice(obj, lo, hi)
		if e != nil {
			return nil, e, false
		}
		vm.push(v)
	case OpAttr:
		obj := vm.pop()
		v, e := vm.getattr(obj, code.Names[in.Arg])
		if e != nil {
			return nil, e, false
		}
		vm.push(v)
	case OpStoreAttr:
		obj := vm.pop()
		val := vm.pop()
		inst, ok := obj.(*InstanceVal)
		if !ok {
			return nil, excf("AttributeError", "cannot set attributes on %s", obj.TypeName()), false
		}
		inst.Attrs[code.Names[in.Arg]] = val
	case OpGetIter:
		it, e := vm.getIter(vm.pop())
		if e != nil {
			return nil, e, false
		}
		vm.push(it)
	case OpForIter:
		it := vm.peek().(iterator)
		v, ok, e := it.next(vm)
		if e != nil {
			return nil, e, false
		}
		if !ok {
			f.ip = int(in.Arg)
			return
		}
		vm.push(v)
	case OpUnpack2:
		v := vm.pop()
		lst, ok := v.(*ListVal)
		if !ok || len(lst.Items) != 2 {
			return nil, excf("ValueError", "need exactly 2 values to unpack"), false
		}
		vm.push(lst.Items[0])
		vm.push(lst.Items[1])
	case OpSetupExcept:
		f.blocks = append(f.blocks, blockEntry{handler: int(in.Arg), sp: len(vm.vals)})
	case OpSetupFinally:
		f.blocks = append(f.blocks, blockEntry{isFinally: true, handler: int(in.Arg), sp: len(vm.vals)})
	case OpPopBlock:
		f.blocks = f.blocks[:len(f.blocks)-1]
	case OpEndFinally:
		// The exception object is on the stack (pushed by unwind).
		ev := vm.pop().(*ExcInstanceVal)
		return nil, &Exc{Type: ev.Type, Msg: ev.Msg.Concrete()}, false
	case OpRaise:
		switch in.Arg {
		case 0:
			return nil, excf("RuntimeError", "no active exception to re-raise"), false
		default: // 1: raise value; 2: re-raise unmatched handler exception
			v := vm.pop()
			return nil, vm.toException(v), false
		}
	case OpExcMatch:
		ev := vm.peek().(*ExcInstanceVal)
		want := code.Names[in.Arg]
		vm.push(goBool(excMatches(ev.Type, want)))
		vm.m.Step(1)
	case OpBindExc:
		ev := vm.pop()
		if in.Arg >= 0 {
			vm.storeName(f, in.Arg, ev)
		}
	case OpMakeFunc:
		cv := code.Consts[in.Arg].(*CodeVal)
		vm.push(&FuncVal{Code: cv.Code, Defaults: cv.Code.Defaults})
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
		vm.push(cls)
	case OpPrint:
		n := int(in.Arg)
		parts := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			parts[i] = vm.pop()
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
	case *MethodVal:
		return fv.def.fn(vm, fv, args)
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
	n := len(args)
	if fv.Self != nil {
		n++
	}
	required := len(params) - len(fv.Defaults)
	if n < required || n > len(params) {
		return nil, excf("TypeError", "%s() takes %d arguments (%d given)", fv.Code.Name, len(params), n)
	}
	return vm.runCode(fv.Code, fv, args)
}

// storeName binds Names[idx] in the frame's scope to v.
func (vm *VM) storeName(f *frame, idx int32, v Value) {
	if f.code.Global[idx] {
		vm.ownGlobals()
		vm.globals[f.code.Names[idx]] = v
	} else {
		f.locals[idx] = v
	}
}

// ownGlobals gives the VM its own copy of the image's globals before it
// writes one.
func (vm *VM) ownGlobals() {
	if vm.sharedGlobals {
		vm.globals = maps.Clone(vm.globals)
		vm.sharedGlobals = false
	}
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
