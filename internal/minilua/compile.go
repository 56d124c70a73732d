package minilua

// Single-pass parser/compiler, in the spirit of the reference Lua
// implementation: statements compile directly to bytecode while parsing,
// with jump targets patched after emission.

type parser struct {
	toks      []Token
	pos       int
	prog      *Program
	fieldKeys map[string]StrVal // one key per field name, shared by the protos
}

type funcState struct {
	p      *parser
	proto  *Proto
	scopes []map[string]int
	breaks [][]int
}

// Compile parses and compiles a MiniLua chunk.
func Compile(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: &Program{Source: src}, fieldKeys: map[string]StrVal{}}
	fs := p.newFunc("<main>", nil)
	if err := fs.block(func() bool { return p.atEOF() }); err != nil {
		return nil, err
	}
	fs.emit(OpLoadNil, 0, 0, p.cur().Line)
	fs.emit(OpReturn, 1, 0, p.cur().Line)
	p.prog.Main = fs.proto
	for _, pr := range p.prog.Protos {
		for _, in := range pr.Instrs {
			p.prog.MaxLine = max(p.prog.MaxLine, in.Line)
		}
	}
	return p.prog, nil
}

func (p *parser) newFunc(name string, params []string) *funcState {
	proto := &Proto{Name: name, BlockID: uint32(len(p.prog.Protos)), NumParams: len(params)}
	p.prog.Protos = append(p.prog.Protos, proto)
	fs := &funcState{p: p, proto: proto, scopes: []map[string]int{{}}}
	for _, prm := range params {
		fs.declareLocal(prm)
	}
	return fs
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *parser) advance() Token {
	t := p.cur()
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) isOp(s string) bool {
	t := p.cur()
	return t.Kind == TokOp && t.Text == s
}

func (p *parser) isKw(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *parser) acceptOp(s string) bool {
	if p.isOp(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKw(s string) bool {
	if p.isKw(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(s string) error {
	if !p.acceptOp(s) {
		return errf(p.cur().Line, "expected %q, got %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectKw(s string) error {
	if !p.acceptKw(s) {
		return errf(p.cur().Line, "expected %q, got %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectName() (Token, error) {
	if p.cur().Kind != TokName {
		return Token{}, errf(p.cur().Line, "expected name, got %s", p.cur())
	}
	return p.advance(), nil
}

func (fs *funcState) emit(op OpCode, arg, b int32, line int) int {
	fs.proto.Instrs = append(fs.proto.Instrs, Instr{Op: op, Arg: arg, B: b, Line: line})
	return len(fs.proto.Instrs) - 1
}

func (fs *funcState) here() int         { return len(fs.proto.Instrs) }
func (fs *funcState) patch(at, tgt int) { fs.proto.Instrs[at].Arg = int32(tgt) }

func (fs *funcState) constIdx(v Value) int32 {
	for i, c := range fs.proto.Consts {
		if luaConstEqual(c, v) {
			return int32(i)
		}
	}
	fs.proto.Consts = append(fs.proto.Consts, v)
	return int32(len(fs.proto.Consts) - 1)
}

func (fs *funcState) nameIdx(name string) int32 {
	for i, n := range fs.proto.Names {
		if n == name {
			return int32(i)
		}
	}
	fs.proto.Names = append(fs.proto.Names, name)
	return int32(len(fs.proto.Names) - 1)
}

// fieldIdx is nameIdx for a field name of OpGetField or OpSelfField, and
// records the string key those index tables with.
func (fs *funcState) fieldIdx(name string) int32 {
	i := fs.nameIdx(name)
	key, ok := fs.p.fieldKeys[name]
	if !ok {
		key = MkStr(name)
		fs.p.fieldKeys[name] = key
	}
	for len(fs.proto.FieldKeys) <= int(i) {
		fs.proto.FieldKeys = append(fs.proto.FieldKeys, StrVal{})
	}
	fs.proto.FieldKeys[i] = key
	return i
}

func luaConstEqual(a, b Value) bool {
	switch x := a.(type) {
	case IntVal:
		y, ok := b.(IntVal)
		return ok && !x.V.IsSymbolic() && !y.V.IsSymbolic() && x.V.C == y.V.C
	case StrVal:
		y, ok := b.(StrVal)
		return ok && !x.HasSymbolicBytes() && !y.HasSymbolicBytes() && x.Concrete() == y.Concrete()
	}
	return false
}

func (fs *funcState) declareLocal(name string) int {
	slot := fs.proto.NumSlots
	fs.proto.NumSlots++
	fs.scopes[len(fs.scopes)-1][name] = slot
	return slot
}

func (fs *funcState) resolve(name string) (int, bool) {
	for i := len(fs.scopes) - 1; i >= 0; i-- {
		if slot, ok := fs.scopes[i][name]; ok {
			return slot, true
		}
	}
	return 0, false
}

func (fs *funcState) pushScope() { fs.scopes = append(fs.scopes, map[string]int{}) }
func (fs *funcState) popScope()  { fs.scopes = fs.scopes[:len(fs.scopes)-1] }

// block compiles statements until the stop predicate holds (caller consumes
// the terminator token).
func (fs *funcState) block(stop func() bool) error {
	for !stop() {
		if fs.p.atEOF() {
			return nil
		}
		if err := fs.statement(); err != nil {
			return err
		}
	}
	return nil
}

func blockEndsAt(p *parser, kws ...string) func() bool {
	return func() bool {
		for _, k := range kws {
			if p.isKw(k) {
				return true
			}
		}
		return false
	}
}

func (fs *funcState) statement() error {
	p := fs.p
	t := p.cur()
	switch {
	case p.acceptOp(";"):
		return nil
	case p.isKw("local"):
		return fs.localStmt()
	case p.isKw("if"):
		return fs.ifStmt()
	case p.isKw("while"):
		return fs.whileStmt()
	case p.isKw("repeat"):
		return fs.repeatStmt()
	case p.isKw("for"):
		return fs.forStmt()
	case p.isKw("function"):
		return fs.funcStmt()
	case p.isKw("return"):
		p.advance()
		if p.isKw("end") || p.isKw("else") || p.isKw("elseif") || p.isKw("until") || p.atEOF() || p.isOp(";") {
			fs.emit(OpLoadNil, 0, 0, t.Line)
		} else {
			if err := fs.expr(); err != nil {
				return err
			}
		}
		fs.emit(OpReturn, 1, 0, t.Line)
		return nil
	case p.isKw("break"):
		p.advance()
		if len(fs.breaks) == 0 {
			return errf(t.Line, "break outside loop")
		}
		at := fs.emit(OpJump, 0, 0, t.Line)
		fs.breaks[len(fs.breaks)-1] = append(fs.breaks[len(fs.breaks)-1], at)
		return nil
	case p.isKw("do"):
		p.advance()
		fs.pushScope()
		if err := fs.block(blockEndsAt(p, "end")); err != nil {
			return err
		}
		fs.popScope()
		return p.expectKw("end")
	default:
		return fs.exprStmt()
	}
}

func (fs *funcState) localStmt() error {
	p := fs.p
	line := p.advance().Line // local
	if p.isKw("function") {
		p.advance()
		name, err := p.expectName()
		if err != nil {
			return err
		}
		slot := fs.declareLocal(name.Text)
		if err := fs.funcBody(name.Text, line); err != nil {
			return err
		}
		fs.emit(OpSetLocal, int32(slot), 0, line)
		return nil
	}
	var names []string
	for {
		n, err := p.expectName()
		if err != nil {
			return err
		}
		names = append(names, n.Text)
		if !p.acceptOp(",") {
			break
		}
	}
	nExprs := 0
	if p.acceptOp("=") {
		for {
			if err := fs.expr(); err != nil {
				return err
			}
			nExprs++
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if nExprs > len(names) {
		return errf(line, "too many initializers")
	}
	for nExprs < len(names) {
		fs.emit(OpLoadNil, 0, 0, line)
		nExprs++
	}
	// Declare after evaluating initializers (Lua semantics), then store in
	// reverse order (last value on top).
	slots := make([]int, len(names))
	for i, n := range names {
		slots[i] = fs.declareLocal(n)
	}
	for i := len(names) - 1; i >= 0; i-- {
		fs.emit(OpSetLocal, int32(slots[i]), 0, line)
	}
	return nil
}

func (fs *funcState) ifStmt() error {
	p := fs.p
	line := p.advance().Line // if / elseif
	if err := fs.expr(); err != nil {
		return err
	}
	if err := p.expectKw("then"); err != nil {
		return err
	}
	jfalse := fs.emit(OpJumpIfNot, 0, 0, line)
	fs.pushScope()
	if err := fs.block(blockEndsAt(p, "end", "else", "elseif")); err != nil {
		return err
	}
	fs.popScope()
	switch {
	case p.isKw("elseif"):
		jend := fs.emit(OpJump, 0, 0, line)
		fs.patch(jfalse, fs.here())
		if err := fs.ifStmt(); err != nil { // consumes through matching end
			return err
		}
		fs.patch(jend, fs.here())
		return nil
	case p.acceptKw("else"):
		jend := fs.emit(OpJump, 0, 0, line)
		fs.patch(jfalse, fs.here())
		fs.pushScope()
		if err := fs.block(blockEndsAt(p, "end")); err != nil {
			return err
		}
		fs.popScope()
		fs.patch(jend, fs.here())
		return p.expectKw("end")
	default:
		fs.patch(jfalse, fs.here())
		return p.expectKw("end")
	}
}

func (fs *funcState) whileStmt() error {
	p := fs.p
	line := p.advance().Line
	top := fs.here()
	if err := fs.expr(); err != nil {
		return err
	}
	if err := p.expectKw("do"); err != nil {
		return err
	}
	jexit := fs.emit(OpJumpIfNot, 0, 0, line)
	fs.breaks = append(fs.breaks, nil)
	fs.pushScope()
	if err := fs.block(blockEndsAt(p, "end")); err != nil {
		return err
	}
	fs.popScope()
	fs.emit(OpJump, int32(top), 0, line)
	fs.patch(jexit, fs.here())
	for _, at := range fs.breaks[len(fs.breaks)-1] {
		fs.patch(at, fs.here())
	}
	fs.breaks = fs.breaks[:len(fs.breaks)-1]
	return p.expectKw("end")
}

func (fs *funcState) repeatStmt() error {
	p := fs.p
	line := p.advance().Line
	top := fs.here()
	fs.breaks = append(fs.breaks, nil)
	fs.pushScope()
	if err := fs.block(blockEndsAt(p, "until")); err != nil {
		return err
	}
	if err := p.expectKw("until"); err != nil {
		return err
	}
	if err := fs.expr(); err != nil {
		return err
	}
	fs.popScope()
	fs.emit(OpJumpIfNot, int32(top), 0, line)
	for _, at := range fs.breaks[len(fs.breaks)-1] {
		fs.patch(at, fs.here())
	}
	fs.breaks = fs.breaks[:len(fs.breaks)-1]
	return nil
}

func (fs *funcState) forStmt() error {
	p := fs.p
	line := p.advance().Line
	name1, err := p.expectName()
	if err != nil {
		return err
	}
	if p.acceptOp("=") {
		// Numeric for: init, limit [, step].
		if err := fs.expr(); err != nil {
			return err
		}
		if err := p.expectOp(","); err != nil {
			return err
		}
		if err := fs.expr(); err != nil {
			return err
		}
		if p.acceptOp(",") {
			if err := fs.expr(); err != nil {
				return err
			}
		} else {
			fs.emit(OpLoadK, fs.constIdx(MkInt(1)), 0, line)
		}
		fs.pushScope()
		varSlot := fs.declareLocal(name1.Text)
		fs.declareLocal("(limit)")
		fs.declareLocal("(step)")
		fs.emit(OpForPrep, int32(varSlot), 0, line)
		jcheck := fs.emit(OpJump, 0, 0, line)
		body := fs.here()
		fs.breaks = append(fs.breaks, nil)
		if err := p.expectKw("do"); err != nil {
			return err
		}
		if err := fs.block(blockEndsAt(p, "end")); err != nil {
			return err
		}
		fs.patch(jcheck, fs.here())
		fs.emit(OpForLoop, int32(body), int32(varSlot), line)
		for _, at := range fs.breaks[len(fs.breaks)-1] {
			fs.patch(at, fs.here())
		}
		fs.breaks = fs.breaks[:len(fs.breaks)-1]
		fs.popScope()
		return p.expectKw("end")
	}
	// Generic for: for k [, v] in <expr> do
	var name2 string
	if p.acceptOp(",") {
		n2, err := p.expectName()
		if err != nil {
			return err
		}
		name2 = n2.Text
	}
	if err := p.expectKw("in"); err != nil {
		return err
	}
	if err := fs.expr(); err != nil {
		return err
	}
	if err := p.expectKw("do"); err != nil {
		return err
	}
	fs.pushScope()
	iterSlot := fs.declareLocal("(iter)")
	fs.emit(OpSetLocal, int32(iterSlot), 0, line)
	kSlot := fs.declareLocal(name1.Text)
	vSlot := -1
	if name2 != "" {
		vSlot = fs.declareLocal(name2)
	}
	top := fs.here()
	jexit := fs.emit(OpTForCall, 0, int32(iterSlot), line)
	// TForCall pushes key then value (value on top).
	if vSlot >= 0 {
		fs.emit(OpSetLocal, int32(vSlot), 0, line)
	} else {
		fs.emit(OpPop, 0, 0, line)
	}
	fs.emit(OpSetLocal, int32(kSlot), 0, line)
	fs.breaks = append(fs.breaks, nil)
	if err := fs.block(blockEndsAt(p, "end")); err != nil {
		return err
	}
	fs.emit(OpJump, int32(top), 0, line)
	fs.patch(jexit, fs.here())
	for _, at := range fs.breaks[len(fs.breaks)-1] {
		fs.patch(at, fs.here())
	}
	fs.breaks = fs.breaks[:len(fs.breaks)-1]
	fs.popScope()
	return p.expectKw("end")
}

func (fs *funcState) funcStmt() error {
	p := fs.p
	line := p.advance().Line // function
	name, err := p.expectName()
	if err != nil {
		return err
	}
	if p.acceptOp(".") {
		field, err := p.expectName()
		if err != nil {
			return err
		}
		// function t.f(...) : compile value, then t, key, SetIndex.
		if err := fs.funcBody(name.Text+"."+field.Text, line); err != nil {
			return err
		}
		fs.loadVar(name.Text, line)
		fs.emit(OpLoadK, fs.constIdx(MkStr(field.Text)), 0, line)
		fs.emit(OpSetIndex, 0, 0, line)
		return nil
	}
	if err := fs.funcBody(name.Text, line); err != nil {
		return err
	}
	fs.storeVar(name.Text, line)
	return nil
}

// funcBody compiles "(params) block end" into a Proto and emits OpClosure.
func (fs *funcState) funcBody(name string, line int) error {
	p := fs.p
	if err := p.expectOp("("); err != nil {
		return err
	}
	var params []string
	for !p.isOp(")") {
		n, err := p.expectName()
		if err != nil {
			return err
		}
		params = append(params, n.Text)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return err
	}
	sub := p.newFunc(name, params)
	sub.breaks = nil
	if err := sub.block(blockEndsAt(p, "end")); err != nil {
		return err
	}
	if err := p.expectKw("end"); err != nil {
		return err
	}
	sub.emit(OpLoadNil, 0, 0, p.cur().Line)
	sub.emit(OpReturn, 1, 0, p.cur().Line)
	fs.emit(OpClosure, fs.constIdx(&ProtoVal{sub.proto}), 0, line)
	return nil
}

func (fs *funcState) loadVar(name string, line int) {
	if slot, ok := fs.resolve(name); ok {
		fs.emit(OpGetLocal, int32(slot), 0, line)
		return
	}
	fs.emit(OpGetGlobal, fs.nameIdx(name), 0, line)
}

func (fs *funcState) storeVar(name string, line int) {
	if slot, ok := fs.resolve(name); ok {
		fs.emit(OpSetLocal, int32(slot), 0, line)
		return
	}
	fs.emit(OpSetGlobal, fs.nameIdx(name), 0, line)
}

// exprStmt handles assignments and call statements.
func (fs *funcState) exprStmt() error {
	p := fs.p
	line := p.cur().Line
	kind, name, err := fs.suffixedExpr(true)
	if err != nil {
		return err
	}
	if p.acceptOp("=") {
		switch kind {
		case exprName:
			if err := fs.expr(); err != nil {
				return err
			}
			fs.storeVar(name, line)
			return nil
		case exprIndexPending:
			// Stack holds: table, key. Evaluate the value, then rotate via
			// SetIndex's operand order (value, table, key): we need value
			// first, so use SetIndex2 ordering: pops key, table, value.
			if err := fs.expr(); err != nil {
				return err
			}
			fs.emit(OpSetIndex2, 0, 0, line)
			return nil
		default:
			return errf(line, "cannot assign to this expression")
		}
	}
	switch kind {
	case exprCall:
		fs.emit(OpPop, 0, 0, line)
		return nil
	case exprIndexPending:
		// An index expression used as a statement is not valid Lua.
		return errf(line, "syntax error near %s", p.cur())
	case exprName:
		return errf(line, "syntax error: lone name %q", name)
	}
	fs.emit(OpPop, 0, 0, line)
	return nil
}

// Expression kinds returned by suffixedExpr when stmt-context parsing.
type exprKind int

const (
	exprValue exprKind = iota
	exprName
	exprCall
	exprIndexPending // stack: table, key (not yet loaded)
)

// expr compiles a full expression (value on stack).
func (fs *funcState) expr() error { return fs.orExpr() }

func (fs *funcState) orExpr() error {
	if err := fs.andExpr(); err != nil {
		return err
	}
	for fs.p.isKw("or") {
		line := fs.p.advance().Line
		j := fs.emit(OpJumpIfKeep, 0, 0, line)
		fs.emit(OpPop, 0, 0, line)
		if err := fs.andExpr(); err != nil {
			return err
		}
		fs.patch(j, fs.here())
	}
	return nil
}

func (fs *funcState) andExpr() error {
	if err := fs.cmpExpr(); err != nil {
		return err
	}
	for fs.p.isKw("and") {
		line := fs.p.advance().Line
		j := fs.emit(OpJumpIfNotKeep, 0, 0, line)
		fs.emit(OpPop, 0, 0, line)
		if err := fs.cmpExpr(); err != nil {
			return err
		}
		fs.patch(j, fs.here())
	}
	return nil
}

func (fs *funcState) cmpExpr() error {
	if err := fs.concatExpr(); err != nil {
		return err
	}
	for {
		var kind int32 = -1
		switch {
		case fs.p.isOp("=="):
			kind = luaEq
		case fs.p.isOp("~="):
			kind = luaNe
		case fs.p.isOp("<"):
			kind = luaLt
		case fs.p.isOp("<="):
			kind = luaLe
		case fs.p.isOp(">"):
			kind = luaGt
		case fs.p.isOp(">="):
			kind = luaGe
		default:
			return nil
		}
		line := fs.p.advance().Line
		if err := fs.concatExpr(); err != nil {
			return err
		}
		fs.emit(OpBin, kind, 0, line)
	}
}

func (fs *funcState) concatExpr() error {
	if err := fs.addExpr(); err != nil {
		return err
	}
	for fs.p.isOp("..") {
		line := fs.p.advance().Line
		if err := fs.addExpr(); err != nil {
			return err
		}
		fs.emit(OpConcat, 0, 0, line)
	}
	return nil
}

func (fs *funcState) addExpr() error {
	if err := fs.mulExpr(); err != nil {
		return err
	}
	for {
		var kind int32 = -1
		if fs.p.isOp("+") {
			kind = luaAdd
		} else if fs.p.isOp("-") {
			kind = luaSub
		} else {
			return nil
		}
		line := fs.p.advance().Line
		if err := fs.mulExpr(); err != nil {
			return err
		}
		fs.emit(OpBin, kind, 0, line)
	}
}

func (fs *funcState) mulExpr() error {
	if err := fs.unaryExpr(); err != nil {
		return err
	}
	for {
		var kind int32 = -1
		switch {
		case fs.p.isOp("*"):
			kind = luaMul
		case fs.p.isOp("/"):
			kind = luaDiv
		case fs.p.isOp("%"):
			kind = luaMod
		default:
			return nil
		}
		line := fs.p.advance().Line
		if err := fs.unaryExpr(); err != nil {
			return err
		}
		fs.emit(OpBin, kind, 0, line)
	}
}

func (fs *funcState) unaryExpr() error {
	p := fs.p
	switch {
	case p.isKw("not"):
		line := p.advance().Line
		if err := fs.unaryExpr(); err != nil {
			return err
		}
		fs.emit(OpNot, 0, 0, line)
		return nil
	case p.isOp("-"):
		line := p.advance().Line
		if err := fs.unaryExpr(); err != nil {
			return err
		}
		fs.emit(OpUnm, 0, 0, line)
		return nil
	case p.isOp("#"):
		line := p.advance().Line
		if err := fs.unaryExpr(); err != nil {
			return err
		}
		fs.emit(OpLen, 0, 0, line)
		return nil
	}
	_, _, err := fs.suffixedExpr(false)
	return err
}

// suffixedExpr parses a primary expression with call/index/field suffixes.
// In statement context (stmtCtx), an indexing suffix at the very end is left
// as (table, key) on the stack so an assignment can consume it; otherwise it
// is loaded.
func (fs *funcState) suffixedExpr(stmtCtx bool) (exprKind, string, error) {
	p := fs.p
	t := p.cur()
	kind := exprValue
	var lastName string
	switch {
	case t.Kind == TokInt:
		p.advance()
		fs.emit(OpLoadK, fs.constIdx(MkInt(t.Int)), 0, t.Line)
	case t.Kind == TokStr:
		p.advance()
		fs.emit(OpLoadK, fs.constIdx(MkStr(t.Text)), 0, t.Line)
	case p.isKw("nil"):
		p.advance()
		fs.emit(OpLoadNil, 0, 0, t.Line)
	case p.isKw("true"):
		p.advance()
		fs.emit(OpLoadBool, 1, 0, t.Line)
	case p.isKw("false"):
		p.advance()
		fs.emit(OpLoadBool, 0, 0, t.Line)
	case p.isKw("function"):
		p.advance()
		if err := fs.funcBody("<anon>", t.Line); err != nil {
			return 0, "", err
		}
	case p.isOp("("):
		p.advance()
		if err := fs.expr(); err != nil {
			return 0, "", err
		}
		if err := p.expectOp(")"); err != nil {
			return 0, "", err
		}
	case p.isOp("{"):
		if err := fs.tableConstructor(); err != nil {
			return 0, "", err
		}
	case t.Kind == TokName:
		p.advance()
		lastName = t.Text
		kind = exprName
		// Defer the load: a bare name in stmt context may be an assignment
		// target. For suffixes we need the value, so load lazily below.
		if !fs.hasSuffix() {
			if stmtCtx {
				return exprName, lastName, nil
			}
			fs.loadVar(lastName, t.Line)
			return exprName, lastName, nil
		}
		fs.loadVar(lastName, t.Line)
	default:
		return 0, "", errf(t.Line, "unexpected token %s", t)
	}
	// Suffix chain.
	for {
		switch {
		case p.isOp("."):
			line := p.advance().Line
			name, err := p.expectName()
			if err != nil {
				return 0, "", err
			}
			if stmtCtx && !fs.hasSuffix() && p.isOp("=") {
				fs.emit(OpLoadK, fs.constIdx(MkStr(name.Text)), 0, line)
				return exprIndexPending, "", nil
			}
			fs.emit(OpGetField, fs.fieldIdx(name.Text), 0, line)
			kind = exprValue
		case p.isOp("["):
			line := p.advance().Line
			if err := fs.expr(); err != nil {
				return 0, "", err
			}
			if err := p.expectOp("]"); err != nil {
				return 0, "", err
			}
			if stmtCtx && !fs.hasSuffix() && p.isOp("=") {
				return exprIndexPending, "", nil
			}
			fs.emit(OpGetIndex, 0, 0, line)
			kind = exprValue
		case p.isOp("("):
			line := p.advance().Line
			n, err := fs.callArgs()
			if err != nil {
				return 0, "", err
			}
			fs.emit(OpCall, int32(n), 0, line)
			kind = exprCall
		case p.cur().Kind == TokStr:
			// f "literal" call sugar.
			line := p.cur().Line
			s := p.advance()
			fs.emit(OpLoadK, fs.constIdx(MkStr(s.Text)), 0, line)
			fs.emit(OpCall, 1, 0, line)
			kind = exprCall
		case p.isOp(":"):
			line := p.advance().Line
			name, err := p.expectName()
			if err != nil {
				return 0, "", err
			}
			fs.emit(OpSelfField, fs.fieldIdx(name.Text), 0, line)
			if err := p.expectOp("("); err != nil {
				return 0, "", err
			}
			n, err := fs.callArgs()
			if err != nil {
				return 0, "", err
			}
			fs.emit(OpCall, int32(n+1), 0, line)
			kind = exprCall
		default:
			return kind, lastName, nil
		}
	}
}

// hasSuffix reports whether the next token begins a suffix.
func (fs *funcState) hasSuffix() bool {
	p := fs.p
	return p.isOp(".") || p.isOp("[") || p.isOp("(") || p.isOp(":") || p.cur().Kind == TokStr
}

func (fs *funcState) callArgs() (int, error) {
	p := fs.p
	n := 0
	for !p.isOp(")") {
		if err := fs.expr(); err != nil {
			return 0, err
		}
		n++
		if !p.acceptOp(",") {
			break
		}
	}
	return n, p.expectOp(")")
}

func (fs *funcState) tableConstructor() error {
	p := fs.p
	line := p.cur().Line
	if err := p.expectOp("{"); err != nil {
		return err
	}
	fs.emit(OpNewTable, 0, 0, line)
	for !p.isOp("}") {
		switch {
		case p.isOp("["):
			p.advance()
			if err := fs.expr(); err != nil {
				return err
			}
			if err := p.expectOp("]"); err != nil {
				return err
			}
			if err := p.expectOp("="); err != nil {
				return err
			}
			if err := fs.expr(); err != nil {
				return err
			}
			fs.emit(OpSetIndexKeep, 0, 0, line)
		case p.cur().Kind == TokName && p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "=":
			name := p.advance()
			p.advance() // =
			fs.emit(OpLoadK, fs.constIdx(MkStr(name.Text)), 0, name.Line)
			if err := fs.expr(); err != nil {
				return err
			}
			fs.emit(OpSetIndexKeep, 0, 0, line)
		default:
			if err := fs.expr(); err != nil {
				return err
			}
			fs.emit(OpAppend, 0, 0, line)
		}
		if !p.acceptOp(",") && !p.acceptOp(";") {
			break
		}
	}
	return p.expectOp("}")
}
