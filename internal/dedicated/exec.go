package dedicated

import (
	"chef/internal/minipy"
	"chef/internal/solver"
	"chef/internal/symexpr"
)

type pyExc struct{ Type string }

func exc(t string) *pyExc { return &pyExc{Type: t} }

func push(f *frame, v Value) { f.stack = append(f.stack, v) }

func pop(f *frame) Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func i64(v int64) IntV { return IntV{symexpr.Const(uint64(v), symexpr.W64)} }

// truthExpr converts a value to a width-1 expression; nil when the truth is
// structural (lists etc.).
func truthExpr(v Value) (*symexpr.Expr, bool) {
	switch x := v.(type) {
	case BoolV:
		return x.E, true
	case IntV:
		return symexpr.Ne(x.E, symexpr.Const(0, symexpr.W64)), true
	case NoneV:
		return symexpr.False, true
	case *ListV:
		return symexpr.Bool(len(x.Items) > 0), true
	case *DictV:
		return symexpr.Bool(len(x.Keys) > 0), true
	case StrV:
		return symexpr.Bool(len(x.B) > 0), true
	}
	return symexpr.True, true
}

// strEqExpr builds the single equality expression for two strings — the
// dedicated engine's high-level semantics (no per-byte interpreter loop).
func strEqExpr(a, b StrV) *symexpr.Expr {
	if len(a.B) != len(b.B) {
		return symexpr.False
	}
	acc := symexpr.True
	for i := range a.B {
		acc = symexpr.BoolAnd(acc, symexpr.Eq(a.B[i], b.B[i]))
	}
	return acc
}

func valuesEqExpr(a, b Value) *symexpr.Expr {
	switch x := a.(type) {
	case IntV:
		if y, ok := b.(IntV); ok {
			return symexpr.Eq(x.E, y.E)
		}
	case StrV:
		if y, ok := b.(StrV); ok {
			return strEqExpr(x, y)
		}
	case BoolV:
		if y, ok := b.(BoolV); ok {
			return symexpr.Eq(x.E, y.E)
		}
	case NoneV:
		_, ok := b.(NoneV)
		return symexpr.Bool(ok)
	}
	return symexpr.False
}

// branch forks the state on cond: the returned states cover the feasible
// sides. With BugCompat enabled and notContext set, the engine reproduces
// NICE's "if not <expr>" bug: it queues the alternate for the wrong side,
// re-exploring an already-covered path and dropping a feasible one.
func (e *Engine) branch(st *state, cond *symexpr.Expr, takenIP, fallIP int, notContext bool) []*state {
	taken := cond
	fallen := symexpr.Not(cond)
	if e.opts.BugCompat && notContext {
		// The bug: the negation is applied twice when the condition came
		// from a "not", so both successors receive the same constraint.
		fallen = cond
	}
	var out []*state
	if e.feasible(st.pc, taken) {
		ns := st.clone()
		ns.pc = append(ns.pc, taken)
		ns.pathID = pathStep(ns.pathID, true)
		ns.top().ip = takenIP
		out = append(out, ns)
	} else {
		e.stats.InfeasibleBr++
	}
	if e.feasible(st.pc, fallen) {
		ns := st.clone()
		ns.pc = append(ns.pc, fallen)
		ns.pathID = pathStep(ns.pathID, false)
		ns.top().ip = fallIP
		out = append(out, ns)
	} else {
		e.stats.InfeasibleBr++
	}
	return out
}

// exec executes one instruction; it returns fork successors, a terminal
// result, or an exception.
func (e *Engine) exec(st *state, f *frame, in minipy.Instr, globals map[string]Value) ([]*state, string, *pyExc) {
	switch in.Op {
	case minipy.OpNop:
	case minipy.OpLoadConst:
		c := f.code.Consts[in.Arg]
		push(f, convertConst(c))
	case minipy.OpLoadName:
		name := f.code.Names[in.Arg]
		if v, ok := f.locals[name]; ok && !f.code.IsModule {
			push(f, v)
			return nil, "", nil
		}
		if v, ok := globals[name]; ok {
			push(f, v)
			return nil, "", nil
		}
		if f.code.IsModule {
			if v, ok := f.locals[name]; ok {
				push(f, v)
				return nil, "", nil
			}
		}
		switch name {
		case "len":
			push(f, builtinMarker{name})
			return nil, "", nil
		}
		return nil, "", exc("NameError")
	case minipy.OpStoreName:
		name := f.code.Names[in.Arg]
		v := pop(f)
		if f.code.Global[in.Arg] {
			globals[name] = v
		} else {
			f.locals[name] = v
		}
	case minipy.OpPop:
		pop(f)
	case minipy.OpDup:
		push(f, f.stack[len(f.stack)-1])
	case minipy.OpBinary:
		r := pop(f)
		l := pop(f)
		v, ex := binaryOp(int(in.Arg), l, r)
		if ex != nil {
			return nil, "", ex
		}
		push(f, v)
	case minipy.OpCompare:
		r := pop(f)
		l := pop(f)
		if in.Arg == 6 || in.Arg == 7 { // in / not in
			if d, ok := r.(*DictV); ok {
				forks, res, ex := e.dictLookupFork(st, d, l, true)
				if ex != nil || res != "" {
					return forks, res, ex
				}
				if in.Arg == 7 {
					for _, ns := range forks {
						top := ns.top()
						b := top.stack[len(top.stack)-1].(BoolV)
						top.stack[len(top.stack)-1] = BoolV{symexpr.Not(b.E)}
					}
				}
				return forks, "", nil
			}
			return nil, "", exc("TypeError")
		}
		v, ex := compareOp(int(in.Arg), l, r)
		if ex != nil {
			return nil, "", ex
		}
		push(f, v)
	case minipy.OpUnaryNeg:
		v, ok := pop(f).(IntV)
		if !ok {
			return nil, "", exc("TypeError")
		}
		push(f, IntV{symexpr.Neg(v.E)})
	case minipy.OpUnaryNot:
		t, _ := truthExpr(pop(f))
		push(f, notMarker{BoolV{symexpr.Not(t)}})
	case minipy.OpJump:
		f.ip = int(in.Arg)
	case minipy.OpJumpIfFalse, minipy.OpJumpIfTrue:
		v := pop(f)
		notCtx := false
		if nm, ok := v.(notMarker); ok {
			v = nm.inner
			notCtx = true
		}
		t, _ := truthExpr(v)
		if t.IsConst() {
			taken := t.ConstVal() != 0
			if in.Op == minipy.OpJumpIfFalse {
				if !taken {
					f.ip = int(in.Arg)
				}
			} else if taken {
				f.ip = int(in.Arg)
			}
			return nil, "", nil
		}
		var condTrueIP, condFalseIP int
		if in.Op == minipy.OpJumpIfFalse {
			condTrueIP, condFalseIP = f.ip, int(in.Arg)
		} else {
			condTrueIP, condFalseIP = int(in.Arg), f.ip
		}
		forks := e.branch(st, t, condTrueIP, condFalseIP, notCtx)
		return forks, "", nil
	case minipy.OpJumpIfFalseKeep, minipy.OpJumpIfTrueKeep:
		v := f.stack[len(f.stack)-1]
		t, _ := truthExpr(v)
		if !t.IsConst() {
			// Fork, keeping the value on both sides.
			var tIP, fIP int
			if in.Op == minipy.OpJumpIfFalseKeep {
				tIP, fIP = f.ip, int(in.Arg)
			} else {
				tIP, fIP = int(in.Arg), f.ip
			}
			return e.branch(st, t, tIP, fIP, false), "", nil
		}
		taken := t.ConstVal() != 0
		if in.Op == minipy.OpJumpIfFalseKeep {
			if !taken {
				f.ip = int(in.Arg)
			}
		} else if taken {
			f.ip = int(in.Arg)
		}
	case minipy.OpCall:
		n := int(in.Arg)
		args := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			args[i] = pop(f)
		}
		fn := pop(f)
		switch fv := fn.(type) {
		case builtinMarker:
			v, ex := e.callBuiltin(fv.name, args)
			if ex != nil {
				return nil, "", ex
			}
			push(f, v)
		case *FuncV:
			if len(st.frames) > 32 {
				return nil, "", exc("RuntimeError")
			}
			nf := &frame{code: fv.Code, locals: map[string]Value{}}
			if len(args) != len(fv.Code.Params) {
				return nil, "", exc("TypeError")
			}
			for i, p := range fv.Code.Params {
				nf.locals[p] = args[i]
			}
			st.frames = append(st.frames, nf)
		default:
			return nil, "", exc("TypeError")
		}
	case minipy.OpReturn:
		v := pop(f)
		st.frames = st.frames[:len(st.frames)-1]
		if len(st.frames) == 0 {
			return nil, "ok", nil
		}
		push(st.top(), v)
	case minipy.OpBuildList:
		n := int(in.Arg)
		items := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			items[i] = pop(f)
		}
		push(f, &ListV{Items: items})
	case minipy.OpBuildDict:
		if in.Arg != 0 {
			return nil, "", exc("TypeError") // non-empty displays unsupported
		}
		push(f, &DictV{})
	case minipy.OpIndex:
		idx := pop(f)
		obj := pop(f)
		switch o := obj.(type) {
		case *ListV:
			iv, ok := idx.(IntV)
			if !ok || !iv.E.IsConst() {
				return nil, "", exc("TypeError") // symbolic list indices unsupported
			}
			i := int(symexpr.SignExtendConst(iv.E.ConstVal(), symexpr.W64))
			if i < 0 {
				i += len(o.Items)
			}
			if i < 0 || i >= len(o.Items) {
				return nil, "", exc("IndexError")
			}
			push(f, o.Items[i])
		case *DictV:
			// Fork per possibly-matching entry: high-level dict semantics.
			return e.dictLookupFork(st, o, idx, false)
		default:
			return nil, "", exc("TypeError")
		}
	case minipy.OpStoreIndex:
		idx := pop(f)
		obj := pop(f)
		val := pop(f)
		d, ok := obj.(*DictV)
		if !ok {
			return nil, "", exc("TypeError")
		}
		return e.dictStoreFork(st, d, idx, val)
	case minipy.OpMakeFunc:
		cv := f.code.Consts[in.Arg].(*minipy.CodeVal)
		push(f, &FuncV{Code: cv.Code})
	default:
		return nil, "", exc("RuntimeError")
	}
	return nil, "", nil
}

type builtinMarker struct{ name string }

func (builtinMarker) kind() string { return "builtin" }

// notMarker tags a boolean produced by "not", so BugCompat can misbehave
// exactly where NICE did.
type notMarker struct{ inner BoolV }

func (notMarker) kind() string { return "bool" }

func convertConst(c minipy.Value) Value {
	switch x := c.(type) {
	case minipy.NoneVal:
		return NoneV{}
	case minipy.BoolVal:
		return BoolV{symexpr.Bool(x.B.C != 0)}
	case minipy.IntVal:
		return IntV{symexpr.Const(x.V.C, symexpr.W64)}
	case minipy.StrVal:
		b := make([]*symexpr.Expr, x.Len())
		for i := range b {
			b[i] = symexpr.Const(x.B[i].C, symexpr.W8)
		}
		return StrV{B: b}
	case *minipy.CodeVal:
		return &FuncV{Code: x.Code}
	}
	return NoneV{}
}

func binaryOp(kind int, l, r Value) (Value, *pyExc) {
	li, lok := l.(IntV)
	ri, rok := r.(IntV)
	if lok && rok {
		switch kind {
		case 0: // binAdd
			return IntV{symexpr.Add(li.E, ri.E)}, nil
		case 1:
			return IntV{symexpr.Sub(li.E, ri.E)}, nil
		case 2:
			return IntV{symexpr.Mul(li.E, ri.E)}, nil
		}
		return nil, exc("TypeError") // div unsupported in the subset
	}
	ls, lsok := l.(StrV)
	rs, rsok := r.(StrV)
	if lsok && rsok && kind == 0 {
		return StrV{B: append(append([]*symexpr.Expr(nil), ls.B...), rs.B...)}, nil
	}
	return nil, exc("TypeError")
}

func compareOp(kind int, l, r Value) (Value, *pyExc) {
	li, lok := l.(IntV)
	ri, rok := r.(IntV)
	if lok && rok {
		switch kind {
		case 0:
			return BoolV{symexpr.Eq(li.E, ri.E)}, nil
		case 1:
			return BoolV{symexpr.Ne(li.E, ri.E)}, nil
		case 2:
			return BoolV{symexpr.Slt(li.E, ri.E)}, nil
		case 3:
			return BoolV{symexpr.Sle(li.E, ri.E)}, nil
		case 4:
			return BoolV{symexpr.Slt(ri.E, li.E)}, nil
		case 5:
			return BoolV{symexpr.Sle(ri.E, li.E)}, nil
		}
	}
	ls, lsok := l.(StrV)
	rs, rsok := r.(StrV)
	if lsok && rsok {
		switch kind {
		case 0:
			return BoolV{strEqExpr(ls, rs)}, nil
		case 1:
			return BoolV{symexpr.Not(strEqExpr(ls, rs))}, nil
		}
	}
	if kind == 0 || kind == 1 {
		eq := valuesEqExpr(l, r)
		if kind == 1 {
			eq = symexpr.Not(eq)
		}
		return BoolV{eq}, nil
	}
	return nil, exc("TypeError")
}

func (e *Engine) callBuiltin(name string, args []Value) (Value, *pyExc) {
	switch name {
	case "len":
		if len(args) != 1 {
			return nil, exc("TypeError")
		}
		switch x := args[0].(type) {
		case *ListV:
			return i64(int64(len(x.Items))), nil
		case StrV:
			return i64(int64(len(x.B))), nil
		case *DictV:
			return i64(int64(len(x.Keys))), nil
		}
		return nil, exc("TypeError")
	}
	return nil, exc("NameError")
}

// dictLookupFork implements d[k] / `k in d` by forking per entry whose key
// may equal k, plus the miss case.
func (e *Engine) dictLookupFork(st *state, d *DictV, key Value, forIn bool) ([]*state, string, *pyExc) {
	var forks []*state
	missPC := append([]*symexpr.Expr(nil), st.pc...)
	for i := range d.Keys {
		eq := valuesEqExpr(d.Keys[i], key)
		if e.feasible(st.pc, eq) {
			ns := st.clone()
			ns.pc = append(ns.pc, eq)
			ns.pathID = pathStep(ns.pathID, true) ^ uint64(i)<<32
			if forIn {
				push(ns.top(), BoolV{symexpr.True})
			} else {
				push(ns.top(), cloneValue(d.Vals[i]))
			}
			forks = append(forks, ns)
		}
		missPC = append(missPC, symexpr.Not(eq))
	}
	// Miss case.
	missRes, _ := e.solver.CheckQuery(solver.Query{PC: missPC})
	if missRes == solver.Sat {
		ns := st.clone()
		ns.pc = missPC
		ns.pathID = pathStep(ns.pathID, false)
		if forIn {
			push(ns.top(), BoolV{symexpr.False})
			forks = append(forks, ns)
		} else {
			// KeyError path terminates this state.
			e.finish(ns, "exception:KeyError")
		}
	}
	if len(forks) == 0 {
		return nil, "", exc("KeyError")
	}
	return forks, "", nil
}

// dictStoreFork implements d[k] = v: fork per entry the key may match
// (overwrite) plus the append case.
func (e *Engine) dictStoreFork(st *state, d *DictV, key, val Value) ([]*state, string, *pyExc) {
	var forks []*state
	missPC := append([]*symexpr.Expr(nil), st.pc...)
	for i := range d.Keys {
		eq := valuesEqExpr(d.Keys[i], key)
		if e.feasible(st.pc, eq) {
			ns := st.clone()
			ns.pc = append(ns.pc, eq)
			ns.pathID = pathStep(ns.pathID, true) ^ uint64(i)<<40
			// The dict in ns is the cloned one; find it via the cloned
			// frame stack: the store already popped operands, so mutate the
			// cloned dict by position.
			nd := findDict(ns, d, st)
			if nd != nil {
				nd.Vals[i] = cloneValue(val)
			}
			forks = append(forks, ns)
		}
		missPC = append(missPC, symexpr.Not(eq))
	}
	missRes, _ := e.solver.CheckQuery(solver.Query{PC: missPC})
	if missRes == solver.Sat {
		ns := st.clone()
		ns.pc = missPC
		ns.pathID = pathStep(ns.pathID, false)
		nd := findDict(ns, d, st)
		if nd != nil {
			nd.Keys = append(nd.Keys, cloneValue(key))
			nd.Vals = append(nd.Vals, cloneValue(val))
		}
		forks = append(forks, ns)
	}
	if len(forks) == 0 {
		return nil, "", exc("RuntimeError")
	}
	return forks, "", nil
}

// findDict locates the clone of dict d (from state orig) inside state ns by
// walking both structures in lockstep.
func findDict(ns *state, d *DictV, orig *state) *DictV {
	for fi, f := range orig.frames {
		for k, v := range f.locals {
			if found := matchDict(v, d, ns.frames[fi].locals[k]); found != nil {
				return found
			}
		}
		for si, v := range f.stack {
			if found := matchDict(v, d, ns.frames[fi].stack[si]); found != nil {
				return found
			}
		}
	}
	return nil
}

func matchDict(origV Value, d *DictV, cloneV Value) *DictV {
	switch ov := origV.(type) {
	case *DictV:
		if ov == d {
			nd, _ := cloneV.(*DictV)
			return nd
		}
	case *ListV:
		cl, ok := cloneV.(*ListV)
		if !ok {
			return nil
		}
		for i := range ov.Items {
			if i < len(cl.Items) {
				if found := matchDict(ov.Items[i], d, cl.Items[i]); found != nil {
					return found
				}
			}
		}
	}
	return nil
}
