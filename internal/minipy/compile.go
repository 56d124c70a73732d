package minipy

// Compiler from the MiniPy AST to bytecode. Every statement and expression
// lowers to stack operations on a per-block instruction list; jump targets
// are patched after emission.

type compiler struct {
	prog *Program
}

type blockCompiler struct {
	c        *compiler
	code     *Code
	breaks   [][]int // patch lists per enclosing loop
	contTgts []int   // continue targets per enclosing loop
	// excDepth tracks how many exception/finally blocks are statically open;
	// loopDepths records the depth at each enclosing loop's entry so break
	// and continue can pop the blocks they jump out of (CPython's
	// POP_BLOCK-on-break semantics).
	excDepth   int
	loopDepths []int
	globals    map[string]bool // names the block declares global
}

// Compile parses and compiles a MiniPy source file into a Program.
func Compile(src string) (*Program, error) {
	mod, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{prog: &Program{Source: src}}
	main, err := c.compileBlock("<module>", nil, nil, mod.Body, true)
	if err != nil {
		return nil, err
	}
	c.prog.Main = main
	for _, blk := range c.prog.Blocks {
		for _, in := range blk.Instrs {
			c.prog.MaxLine = max(c.prog.MaxLine, in.Line)
		}
	}
	return c.prog, nil
}

// MustCompile compiles or panics; intended for package sources embedded in
// the binary, whose compilability is covered by tests.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (c *compiler) newCode(name string, params []string, defaults []Value, isModule bool) *Code {
	code := &Code{
		Name:     name,
		BlockID:  uint32(len(c.prog.Blocks)),
		Params:   params,
		Defaults: defaults,
		IsModule: isModule,
	}
	c.prog.Blocks = append(c.prog.Blocks, code)
	return code
}

func (c *compiler) compileBlock(name string, params []string, defaults []Value, body []Node, isModule bool) (*Code, error) {
	code := c.newCode(name, params, defaults, isModule)
	bc := &blockCompiler{c: c, code: code}
	// Parameters are named first, so parameter i is local slot i.
	for _, p := range params {
		bc.nameIdx(p)
	}
	if err := bc.stmts(body); err != nil {
		return nil, err
	}
	// Implicit "return None".
	last := 0
	if len(body) > 0 {
		last = body[len(body)-1].nodeLine()
	}
	bc.emit(OpLoadConst, bc.constIdx(None), last)
	bc.emit(OpReturn, 0, last)
	code.Global = make([]bool, len(code.Names))
	for i, n := range code.Names {
		code.Global[i] = isModule || bc.globals[n]
	}
	return code, nil
}

func (b *blockCompiler) emit(op OpCode, arg int32, line int) int {
	b.code.Instrs = append(b.code.Instrs, Instr{Op: op, Arg: arg, Line: line})
	return len(b.code.Instrs) - 1
}

func (b *blockCompiler) here() int { return len(b.code.Instrs) }

func (b *blockCompiler) patch(at int, target int) { b.code.Instrs[at].Arg = int32(target) }

func (b *blockCompiler) constIdx(v Value) int32 {
	// Interning of equal literal constants is a compile-time affair on
	// concrete values only; a linear scan suffices at these sizes.
	for i, c := range b.code.Consts {
		if constEqual(c, v) {
			return int32(i)
		}
	}
	b.code.Consts = append(b.code.Consts, v)
	return int32(len(b.code.Consts) - 1)
}

func constEqual(a, c Value) bool {
	switch x := a.(type) {
	case NoneVal:
		_, ok := c.(NoneVal)
		return ok
	case BoolVal:
		y, ok := c.(BoolVal)
		return ok && x.B.C == y.B.C && !x.B.IsSymbolic() && !y.B.IsSymbolic()
	case IntVal:
		y, ok := c.(IntVal)
		return ok && x.Big == nil && y.Big == nil && !x.V.IsSymbolic() && !y.V.IsSymbolic() && x.V.C == y.V.C
	case StrVal:
		y, ok := c.(StrVal)
		return ok && !x.HasSymbolicBytes() && !y.HasSymbolicBytes() && x.Concrete() == y.Concrete()
	}
	return false
}

func (b *blockCompiler) nameIdx(name string) int32 {
	for i, n := range b.code.Names {
		if n == name {
			return int32(i)
		}
	}
	b.code.Names = append(b.code.Names, name)
	return int32(len(b.code.Names) - 1)
}

func (b *blockCompiler) stmts(body []Node) error {
	for _, st := range body {
		if err := b.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (b *blockCompiler) stmt(n Node) error {
	switch st := n.(type) {
	case *ExprStmt:
		if err := b.expr(st.X); err != nil {
			return err
		}
		b.emit(OpPop, 0, st.Line)
	case *AssignStmt:
		return b.assign(st.Target, st.Value, st.Line)
	case *AugAssignStmt:
		return b.augAssign(st)
	case *IfStmt:
		return b.ifStmt(st)
	case *WhileStmt:
		return b.whileStmt(st)
	case *ForStmt:
		return b.forStmt(st)
	case *DefStmt:
		code, err := b.compileDef(st)
		if err != nil {
			return err
		}
		b.emit(OpMakeFunc, b.constIdx(&CodeVal{code}), st.Line)
		b.emit(OpStoreName, b.nameIdx(st.Name), st.Line)
	case *ClassStmt:
		return b.classStmt(st)
	case *ReturnStmt:
		if st.Value != nil {
			if err := b.expr(st.Value); err != nil {
				return err
			}
		} else {
			b.emit(OpLoadConst, b.constIdx(None), st.Line)
		}
		b.emit(OpReturn, 0, st.Line)
	case *BreakStmt:
		if len(b.breaks) == 0 {
			return syntaxErrf(st.Line, "break outside loop")
		}
		b.popBlocksToLoop(st.Line)
		at := b.emit(OpJump, 0, st.Line)
		b.breaks[len(b.breaks)-1] = append(b.breaks[len(b.breaks)-1], at)
	case *ContinueStmt:
		if len(b.contTgts) == 0 {
			return syntaxErrf(st.Line, "continue outside loop")
		}
		b.popBlocksToLoop(st.Line)
		b.emit(OpJump, int32(b.contTgts[len(b.contTgts)-1]), st.Line)
	case *PassStmt:
		b.emit(OpNop, 0, st.Line)
	case *RaiseStmt:
		if st.Exc == nil {
			b.emit(OpRaise, 0, st.Line)
		} else {
			if err := b.expr(st.Exc); err != nil {
				return err
			}
			b.emit(OpRaise, 1, st.Line)
		}
	case *TryStmt:
		return b.tryStmt(st)
	case *GlobalStmt:
		if b.globals == nil {
			b.globals = map[string]bool{}
		}
		for _, name := range st.Names {
			b.globals[name] = true
		}
		b.emit(OpNop, 0, st.Line)
	case *AssertStmt:
		if err := b.expr(st.Cond); err != nil {
			return err
		}
		jok := b.emit(OpJumpIfTrue, 0, st.Line)
		b.emit(OpLoadName, b.nameIdx("AssertionError"), st.Line)
		nargs := int32(0)
		if st.Msg != nil {
			if err := b.expr(st.Msg); err != nil {
				return err
			}
			nargs = 1
		}
		b.emit(OpCall, nargs, st.Line)
		b.emit(OpRaise, 1, st.Line)
		b.patch(jok, b.here())
	case *DelStmt:
		switch t := st.Target.(type) {
		case *IndexExpr:
			if err := b.expr(t.X); err != nil {
				return err
			}
			if err := b.expr(t.Idx); err != nil {
				return err
			}
			b.emit(OpDelIndex, 0, st.Line)
		case *NameExpr:
			b.emit(OpDelName, b.nameIdx(t.Name), st.Line)
		default:
			return syntaxErrf(st.Line, "cannot delete this expression")
		}
	default:
		return syntaxErrf(n.nodeLine(), "unsupported statement %T", n)
	}
	return nil
}

func (b *blockCompiler) assign(target, value Node, line int) error {
	switch t := target.(type) {
	case *NameExpr:
		if err := b.expr(value); err != nil {
			return err
		}
		b.emit(OpStoreName, b.nameIdx(t.Name), line)
	case *IndexExpr:
		if err := b.expr(value); err != nil {
			return err
		}
		if err := b.expr(t.X); err != nil {
			return err
		}
		if err := b.expr(t.Idx); err != nil {
			return err
		}
		b.emit(OpStoreIndex, 0, line)
	case *AttrExpr:
		if err := b.expr(value); err != nil {
			return err
		}
		if err := b.expr(t.X); err != nil {
			return err
		}
		b.emit(OpStoreAttr, b.nameIdx(t.Name), line)
	default:
		return syntaxErrf(line, "unsupported assignment target %T", target)
	}
	return nil
}

func (b *blockCompiler) augAssign(st *AugAssignStmt) error {
	kind, ok := binKindOf(st.Op)
	if !ok {
		return syntaxErrf(st.Line, "unsupported augmented operator %q", st.Op)
	}
	// Load current value, apply, store back. Index targets re-evaluate the
	// object and index expressions, which is acceptable for MiniPy's pure
	// expression subset.
	if err := b.expr(st.Target); err != nil {
		return err
	}
	if err := b.expr(st.Value); err != nil {
		return err
	}
	b.emit(OpBinary, int32(kind), st.Line)
	switch t := st.Target.(type) {
	case *NameExpr:
		b.emit(OpStoreName, b.nameIdx(t.Name), st.Line)
	case *IndexExpr:
		if err := b.expr(t.X); err != nil {
			return err
		}
		if err := b.expr(t.Idx); err != nil {
			return err
		}
		b.emit(OpStoreIndex, 0, st.Line)
	case *AttrExpr:
		if err := b.expr(t.X); err != nil {
			return err
		}
		b.emit(OpStoreAttr, b.nameIdx(t.Name), st.Line)
	default:
		return syntaxErrf(st.Line, "unsupported augmented target %T", st.Target)
	}
	return nil
}

func binKindOf(op string) (int, bool) {
	switch op {
	case "+":
		return binAdd, true
	case "-":
		return binSub, true
	case "*":
		return binMul, true
	case "/":
		return binDiv, true
	case "//":
		return binFloorDiv, true
	case "%":
		return binMod, true
	}
	return 0, false
}

func cmpKindOf(op string) (int, bool) {
	switch op {
	case "==":
		return cmpEq, true
	case "!=":
		return cmpNe, true
	case "<":
		return cmpLt, true
	case "<=":
		return cmpLe, true
	case ">":
		return cmpGt, true
	case ">=":
		return cmpGe, true
	case "in":
		return cmpIn, true
	case "notin":
		return cmpNotIn, true
	}
	return 0, false
}

// popBlocksToLoop emits POP_BLOCK for every exception/finally block opened
// inside the innermost loop, so break/continue leave the frame's block stack
// consistent. (Running finally bodies on break is not supported; see
// docs/LANGUAGES.md.)
func (b *blockCompiler) popBlocksToLoop(line int) {
	entry := b.loopDepths[len(b.loopDepths)-1]
	for d := b.excDepth; d > entry; d-- {
		b.emit(OpPopBlock, 0, line)
	}
}

func (b *blockCompiler) ifStmt(st *IfStmt) error {
	if err := b.expr(st.Cond); err != nil {
		return err
	}
	jfalse := b.emit(OpJumpIfFalse, 0, st.Line)
	if err := b.stmts(st.Then); err != nil {
		return err
	}
	if len(st.Else) == 0 {
		b.patch(jfalse, b.here())
		return nil
	}
	jend := b.emit(OpJump, 0, st.Line)
	b.patch(jfalse, b.here())
	if err := b.stmts(st.Else); err != nil {
		return err
	}
	b.patch(jend, b.here())
	return nil
}

func (b *blockCompiler) whileStmt(st *WhileStmt) error {
	top := b.here()
	if err := b.expr(st.Cond); err != nil {
		return err
	}
	jexit := b.emit(OpJumpIfFalse, 0, st.Line)
	b.breaks = append(b.breaks, nil)
	b.contTgts = append(b.contTgts, top)
	b.loopDepths = append(b.loopDepths, b.excDepth)
	if err := b.stmts(st.Body); err != nil {
		return err
	}
	b.emit(OpJump, int32(top), st.Line)
	b.patch(jexit, b.here())
	for _, at := range b.breaks[len(b.breaks)-1] {
		b.patch(at, b.here())
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.contTgts = b.contTgts[:len(b.contTgts)-1]
	b.loopDepths = b.loopDepths[:len(b.loopDepths)-1]
	return nil
}

func (b *blockCompiler) forStmt(st *ForStmt) error {
	if err := b.expr(st.Iter); err != nil {
		return err
	}
	b.emit(OpGetIter, 0, st.Line)
	top := b.here()
	jexit := b.emit(OpForIter, 0, st.Line)
	if st.Var2 != "" {
		b.emit(OpUnpack2, 0, st.Line)
		b.emit(OpStoreName, b.nameIdx(st.Var2), st.Line)
		b.emit(OpStoreName, b.nameIdx(st.Var), st.Line)
	} else {
		b.emit(OpStoreName, b.nameIdx(st.Var), st.Line)
	}
	b.breaks = append(b.breaks, nil)
	b.contTgts = append(b.contTgts, top)
	b.loopDepths = append(b.loopDepths, b.excDepth)
	if err := b.stmts(st.Body); err != nil {
		return err
	}
	b.emit(OpJump, int32(top), st.Line)
	b.patch(jexit, b.here())
	// The iterator is still on the stack at loop exit.
	b.emit(OpPop, 0, st.Line)
	exitPoint := b.here()
	for _, at := range b.breaks[len(b.breaks)-1] {
		// break jumps must also pop the iterator: route them to the POP.
		b.patch(at, exitPoint-1)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.contTgts = b.contTgts[:len(b.contTgts)-1]
	b.loopDepths = b.loopDepths[:len(b.loopDepths)-1]
	return nil
}

func (b *blockCompiler) compileDef(st *DefStmt) (*Code, error) {
	defaults := make([]Value, 0, len(st.Defaults))
	for _, d := range st.Defaults {
		v, err := literalValue(d)
		if err != nil {
			return nil, err
		}
		defaults = append(defaults, v)
	}
	return b.c.compileBlock(st.Name, st.Params, defaults, st.Body, false)
}

// literalValue evaluates a compile-time constant expression (parameter
// defaults and class-level constants are restricted to immutable literals).
func literalValue(n Node) (Value, error) {
	switch x := n.(type) {
	case *NumLit:
		return MkInt(x.Value), nil
	case *StrLit:
		return MkStr(x.Value), nil
	case *ConstExpr:
		switch x.Kind {
		case "None":
			return None, nil
		case "True":
			return MkBool(true), nil
		case "False":
			return MkBool(false), nil
		}
	case *UnaryOp:
		if x.Op == "-" {
			if num, ok := x.X.(*NumLit); ok {
				return MkInt(-num.Value), nil
			}
		}
	}
	return nil, syntaxErrf(n.nodeLine(), "default/class-level values must be immutable literals")
}

func (b *blockCompiler) classStmt(st *ClassStmt) error {
	spec := &ClassSpec{Name: st.Name, Base: st.Base, Consts: map[string]Value{}}
	for _, m := range st.Methods {
		code, err := b.compileDef(m)
		if err != nil {
			return err
		}
		spec.Methods = append(spec.Methods, code)
	}
	for _, a := range st.Assigns {
		name, ok := a.Target.(*NameExpr)
		if !ok {
			return syntaxErrf(a.Line, "class-level assignment must target a name")
		}
		v, err := literalValue(a.Value)
		if err != nil {
			return err
		}
		spec.Consts[name.Name] = v
	}
	b.emit(OpMakeClass, b.constIdx(&ClassSpecVal{spec}), st.Line)
	b.emit(OpStoreName, b.nameIdx(st.Name), st.Line)
	return nil
}

func (b *blockCompiler) tryStmt(st *TryStmt) error {
	if st.Finally != nil && len(st.Handlers) > 0 {
		// Desugar try/except/finally into nested try statements.
		inner := &TryStmt{base: st.base, Body: st.Body, Handlers: st.Handlers}
		outer := &TryStmt{base: st.base, Body: []Node{inner}, Finally: st.Finally}
		return b.tryStmt(outer)
	}
	if st.Finally != nil {
		setup := b.emit(OpSetupFinally, 0, st.Line)
		b.excDepth++
		if err := b.stmts(st.Body); err != nil {
			return err
		}
		b.emit(OpPopBlock, 0, st.Line)
		b.excDepth--
		// Normal path: inline copy of the finally body.
		if err := b.stmts(st.Finally); err != nil {
			return err
		}
		jend := b.emit(OpJump, 0, st.Line)
		b.patch(setup, b.here())
		// Exception path: run the finally body, then re-raise.
		if err := b.stmts(st.Finally); err != nil {
			return err
		}
		b.emit(OpEndFinally, 0, st.Line)
		b.patch(jend, b.here())
		return nil
	}
	setup := b.emit(OpSetupExcept, 0, st.Line)
	b.excDepth++
	if err := b.stmts(st.Body); err != nil {
		return err
	}
	b.emit(OpPopBlock, 0, st.Line)
	b.excDepth--
	jend := b.emit(OpJump, 0, st.Line)
	b.patch(setup, b.here())
	// Handler chain; the raised exception object is on the stack.
	var endJumps []int
	for _, h := range st.Handlers {
		var jnext int = -1
		if h.Type != "" {
			b.emit(OpExcMatch, b.nameIdx(h.Type), h.Line)
			jnext = b.emit(OpJumpIfFalse, 0, h.Line)
		}
		if h.As != "" {
			b.emit(OpBindExc, b.nameIdx(h.As), h.Line)
		} else {
			b.emit(OpBindExc, -1, h.Line)
		}
		if err := b.stmts(h.Body); err != nil {
			return err
		}
		endJumps = append(endJumps, b.emit(OpJump, 0, h.Line))
		if jnext >= 0 {
			b.patch(jnext, b.here())
		}
	}
	// No handler matched: re-raise the exception on the stack.
	b.emit(OpRaise, 2, st.Line)
	for _, at := range endJumps {
		b.patch(at, b.here())
	}
	b.patch(jend, b.here())
	return nil
}

func (b *blockCompiler) expr(n Node) error {
	switch x := n.(type) {
	case *NumLit:
		b.emit(OpLoadConst, b.constIdx(MkInt(x.Value)), x.Line)
	case *StrLit:
		b.emit(OpLoadConst, b.constIdx(MkStr(x.Value)), x.Line)
	case *ConstExpr:
		v, err := literalValue(x)
		if err != nil {
			return err
		}
		b.emit(OpLoadConst, b.constIdx(v), x.Line)
	case *NameExpr:
		b.emit(OpLoadName, b.nameIdx(x.Name), x.Line)
	case *ListLit:
		for _, e := range x.Elems {
			if err := b.expr(e); err != nil {
				return err
			}
		}
		b.emit(OpBuildList, int32(len(x.Elems)), x.Line)
	case *DictLit:
		for i := range x.Keys {
			if err := b.expr(x.Keys[i]); err != nil {
				return err
			}
			if err := b.expr(x.Values[i]); err != nil {
				return err
			}
		}
		b.emit(OpBuildDict, int32(len(x.Keys)), x.Line)
	case *BinOp:
		if err := b.expr(x.L); err != nil {
			return err
		}
		if err := b.expr(x.R); err != nil {
			return err
		}
		if k, ok := binKindOf(x.Op); ok {
			b.emit(OpBinary, int32(k), x.Line)
		} else if k, ok := cmpKindOf(x.Op); ok {
			b.emit(OpCompare, int32(k), x.Line)
		} else {
			return syntaxErrf(x.Line, "unsupported operator %q", x.Op)
		}
	case *BoolOp:
		if err := b.expr(x.L); err != nil {
			return err
		}
		var j int
		if x.Op == "and" {
			j = b.emit(OpJumpIfFalseKeep, 0, x.Line)
		} else {
			j = b.emit(OpJumpIfTrueKeep, 0, x.Line)
		}
		b.emit(OpPop, 0, x.Line)
		if err := b.expr(x.R); err != nil {
			return err
		}
		b.patch(j, b.here())
	case *UnaryOp:
		if err := b.expr(x.X); err != nil {
			return err
		}
		if x.Op == "-" {
			b.emit(OpUnaryNeg, 0, x.Line)
		} else {
			b.emit(OpUnaryNot, 0, x.Line)
		}
	case *CallExpr:
		if err := b.expr(x.Fn); err != nil {
			return err
		}
		for _, a := range x.Args {
			if err := b.expr(a); err != nil {
				return err
			}
		}
		b.emit(OpCall, int32(len(x.Args)), x.Line)
	case *AttrExpr:
		if err := b.expr(x.X); err != nil {
			return err
		}
		b.emit(OpAttr, b.nameIdx(x.Name), x.Line)
	case *IndexExpr:
		if err := b.expr(x.X); err != nil {
			return err
		}
		if err := b.expr(x.Idx); err != nil {
			return err
		}
		b.emit(OpIndex, 0, x.Line)
	case *SliceExpr:
		if err := b.expr(x.X); err != nil {
			return err
		}
		arg := int32(0)
		if x.Lo != nil {
			if err := b.expr(x.Lo); err != nil {
				return err
			}
			arg |= 1
		}
		if x.Hi != nil {
			if err := b.expr(x.Hi); err != nil {
				return err
			}
			arg |= 2
		}
		b.emit(OpSlice, arg, x.Line)
	default:
		return syntaxErrf(n.nodeLine(), "unsupported expression %T", n)
	}
	return nil
}
