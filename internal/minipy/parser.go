package minipy

import "slices"

// Recursive-descent parser for MiniPy.

type parser struct {
	toks []Token
	pos  int
}

// Parse builds the module AST for a MiniPy source file.
func Parse(src string) (*Module, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var body []Node
	for !p.atEOF() {
		if p.skipNewlines() {
			continue
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	return &Module{base: base{Line: 1}, Body: body}, nil
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

func (p *parser) skipNewlines() bool {
	skipped := false
	for p.cur().Kind == TokNewline {
		p.advance()
		skipped = true
	}
	return skipped
}

func (p *parser) isOp(text string) bool {
	t := p.cur()
	return t.Kind == TokOp && t.Text == text
}

func (p *parser) isKw(text string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == text
}

func (p *parser) acceptOp(text string) bool {
	if p.isOp(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKw(text string) bool {
	if p.isKw(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(text string) error {
	if !p.acceptOp(text) {
		return syntaxErrf(p.cur().Line, "expected %q, got %s", text, p.cur())
	}
	return nil
}

func (p *parser) expectKind(k TokKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, syntaxErrf(p.cur().Line, "expected %s, got %s", k, p.cur())
	}
	return p.advance(), nil
}

func (p *parser) expectNewline() error {
	if p.cur().Kind == TokNewline {
		p.advance()
		return nil
	}
	if p.atEOF() || p.cur().Kind == TokDedent {
		return nil
	}
	return syntaxErrf(p.cur().Line, "expected end of line, got %s", p.cur())
}

// block parses NEWLINE INDENT stmt+ DEDENT.
func (p *parser) block() ([]Node, error) {
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	// Inline single statement: "if x: return"
	if p.cur().Kind != TokNewline {
		st, err := p.simpleStatement()
		if err != nil {
			return nil, err
		}
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return []Node{st}, nil
	}
	p.advance() // newline
	if _, err := p.expectKind(TokIndent); err != nil {
		return nil, err
	}
	var body []Node
	for {
		if p.skipNewlines() {
			continue
		}
		if p.cur().Kind == TokDedent {
			p.advance()
			return body, nil
		}
		if p.atEOF() {
			return body, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
}

func (p *parser) statement() (Node, error) {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "if":
			return p.ifStatement()
		case "while":
			return p.whileStatement()
		case "for":
			return p.forStatement()
		case "def":
			return p.defStatement()
		case "class":
			return p.classStatement()
		case "try":
			return p.tryStatement()
		}
	}
	st, err := p.simpleStatement()
	if err != nil {
		return nil, err
	}
	// Allow "a = 1; b = 2" — rare, but cheap to support.
	for p.acceptOp(";") {
		if p.cur().Kind == TokNewline || p.atEOF() {
			break
		}
		return nil, syntaxErrf(p.cur().Line, "multiple statements per line not supported")
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) simpleStatement() (Node, error) {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "return":
			p.advance()
			if p.cur().Kind == TokNewline || p.atEOF() || p.cur().Kind == TokDedent {
				return &ReturnStmt{base: base{t.Line}}, nil
			}
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &ReturnStmt{base: base{t.Line}, Value: v}, nil
		case "break":
			p.advance()
			return &BreakStmt{base{t.Line}}, nil
		case "continue":
			p.advance()
			return &ContinueStmt{base{t.Line}}, nil
		case "pass":
			p.advance()
			return &PassStmt{base{t.Line}}, nil
		case "raise":
			p.advance()
			if p.cur().Kind == TokNewline || p.atEOF() || p.cur().Kind == TokDedent {
				return &RaiseStmt{base: base{t.Line}}, nil
			}
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &RaiseStmt{base: base{t.Line}, Exc: v}, nil
		case "global":
			p.advance()
			var names []string
			for {
				n, err := p.expectKind(TokName)
				if err != nil {
					return nil, err
				}
				names = append(names, n.Text)
				if !p.acceptOp(",") {
					break
				}
			}
			return &GlobalStmt{base: base{t.Line}, Names: names}, nil
		case "del":
			p.advance()
			target, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &DelStmt{base: base{t.Line}, Target: target}, nil
		case "assert":
			p.advance()
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			var msg Node
			if p.acceptOp(",") {
				msg, err = p.expr()
				if err != nil {
					return nil, err
				}
			}
			return &AssertStmt{base: base{t.Line}, Cond: cond, Msg: msg}, nil
		}
	}
	// Expression, assignment or augmented assignment.
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"+=", "-=", "*=", "/=", "%="} {
		if p.isOp(op) {
			p.advance()
			rhs, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := checkAssignable(lhs); err != nil {
				return nil, err
			}
			return &AugAssignStmt{base: base{t.Line}, Op: op[:1], Target: lhs, Value: rhs}, nil
		}
	}
	if p.acceptOp("=") {
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := checkAssignable(lhs); err != nil {
			return nil, err
		}
		return &AssignStmt{base: base{t.Line}, Target: lhs, Value: rhs}, nil
	}
	return &ExprStmt{base: base{t.Line}, X: lhs}, nil
}

func checkAssignable(n Node) error {
	switch n.(type) {
	case *NameExpr, *IndexExpr, *AttrExpr, *SliceExpr:
		return nil
	}
	return syntaxErrf(n.nodeLine(), "cannot assign to this expression")
}

func (p *parser) ifStatement() (Node, error) {
	line := p.cur().Line
	p.advance() // if / elif
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{base: base{line}, Cond: cond, Then: then}
	p.skipNewlines()
	if p.isKw("elif") {
		sub, err := p.ifStatement()
		if err != nil {
			return nil, err
		}
		st.Else = []Node{sub}
	} else if p.acceptKw("else") {
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *parser) whileStatement() (Node, error) {
	line := p.cur().Line
	p.advance()
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{base: base{line}, Cond: cond, Body: body}, nil
}

func (p *parser) forStatement() (Node, error) {
	line := p.cur().Line
	p.advance()
	v1, err := p.expectKind(TokName)
	if err != nil {
		return nil, err
	}
	var v2 string
	if p.acceptOp(",") {
		t, err := p.expectKind(TokName)
		if err != nil {
			return nil, err
		}
		v2 = t.Text
	}
	if !p.acceptKw("in") {
		return nil, syntaxErrf(p.cur().Line, "expected 'in' in for statement")
	}
	iter, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ForStmt{base: base{line}, Var: v1.Text, Var2: v2, Iter: iter, Body: body}, nil
}

func (p *parser) defStatement() (*DefStmt, error) {
	line := p.cur().Line
	p.advance()
	name, err := p.expectKind(TokName)
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var params []string
	var defaults []Node
	for !p.isOp(")") {
		pn, err := p.expectKind(TokName)
		if err != nil {
			return nil, err
		}
		if slices.Contains(params, pn.Text) {
			return nil, syntaxErrf(pn.Line, "duplicate argument '%s' in function definition", pn.Text)
		}
		params = append(params, pn.Text)
		if p.acceptOp("=") {
			d, err := p.expr()
			if err != nil {
				return nil, err
			}
			defaults = append(defaults, d)
		} else if len(defaults) > 0 {
			return nil, syntaxErrf(pn.Line, "non-default parameter after default")
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &DefStmt{base: base{line}, Name: name.Text, Params: params, Defaults: defaults, Body: body}, nil
}

func (p *parser) classStatement() (Node, error) {
	line := p.cur().Line
	p.advance()
	name, err := p.expectKind(TokName)
	if err != nil {
		return nil, err
	}
	var baseName string
	if p.acceptOp("(") {
		if !p.isOp(")") {
			b, err := p.expectKind(TokName)
			if err != nil {
				return nil, err
			}
			baseName = b.Text
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	cls := &ClassStmt{base: base{line}, Name: name.Text, Base: baseName}
	for _, st := range body {
		switch s := st.(type) {
		case *DefStmt:
			cls.Methods = append(cls.Methods, s)
		case *AssignStmt:
			cls.Assigns = append(cls.Assigns, s)
		case *PassStmt:
		default:
			return nil, syntaxErrf(st.nodeLine(), "unsupported statement in class body")
		}
	}
	return cls, nil
}

func (p *parser) tryStatement() (Node, error) {
	line := p.cur().Line
	p.advance()
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &TryStmt{base: base{line}, Body: body}
	p.skipNewlines()
	for p.isKw("except") {
		eLine := p.cur().Line
		p.advance()
		var typ, as string
		if p.cur().Kind == TokName {
			typ = p.advance().Text
			if p.acceptKw("as") {
				a, err := p.expectKind(TokName)
				if err != nil {
					return nil, err
				}
				as = a.Text
			}
		}
		hbody, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Handlers = append(st.Handlers, ExceptClause{Line: eLine, Type: typ, As: as, Body: hbody})
		p.skipNewlines()
	}
	if p.acceptKw("finally") {
		fbody, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Finally = fbody
	}
	if len(st.Handlers) == 0 && st.Finally == nil {
		return nil, syntaxErrf(line, "try without except or finally")
	}
	return st, nil
}

// Expression grammar, lowest to highest precedence:
// or > and > not > comparison > addition > multiplication > unary > postfix.

func (p *parser) expr() (Node, error) { return p.orExpr() }

func (p *parser) orExpr() (Node, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKw("or") {
		line := p.advance().Line
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BoolOp{base: base{line}, Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Node, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.isKw("and") {
		line := p.advance().Line
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BoolOp{base: base{line}, Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Node, error) {
	if p.isKw("not") {
		line := p.advance().Line
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{base: base{line}, Op: "not", X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Node, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	seen := false
	for {
		var op string
		switch {
		case p.isOp("=="), p.isOp("!="), p.isOp("<"), p.isOp("<="), p.isOp(">"), p.isOp(">="):
			op = p.advance().Text
		case p.isKw("in"):
			p.advance()
			op = "in"
		case p.isKw("not"):
			// "not in"
			p.advance()
			if !p.acceptKw("in") {
				return nil, syntaxErrf(p.cur().Line, "expected 'in' after 'not'")
			}
			op = "notin"
		default:
			return l, nil
		}
		if seen {
			// Python's chained comparisons (a < b < c) have conjunction
			// semantics MiniPy does not implement; reject rather than parse
			// them with different meaning.
			return nil, syntaxErrf(p.cur().Line, "chained comparisons are not supported; use 'and'")
		}
		seen = true
		line := p.cur().Line
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{base: base{line}, Op: op, L: l, R: r}
	}
}

func (p *parser) addExpr() (Node, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") {
		t := p.advance()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{base: base{t.Line}, Op: t.Text, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Node, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") || p.isOp("//") || p.isOp("%") {
		t := p.advance()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &BinOp{base: base{t.Line}, Op: t.Text, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Node, error) {
	if p.isOp("-") {
		line := p.advance().Line
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{base: base{line}, Op: "-", X: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Node, error) {
	x, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isOp("("):
			line := p.advance().Line
			var args []Node
			for !p.isOp(")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			x = &CallExpr{base: base{line}, Fn: x, Args: args}
		case p.isOp("["):
			line := p.advance().Line
			if p.isOp(":") { // x[:hi]
				p.advance()
				var hi Node
				if !p.isOp("]") {
					hi, err = p.expr()
					if err != nil {
						return nil, err
					}
				}
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				x = &SliceExpr{base: base{line}, X: x, Hi: hi}
				continue
			}
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if p.acceptOp(":") { // x[lo:hi] or x[lo:]
				var hi Node
				if !p.isOp("]") {
					hi, err = p.expr()
					if err != nil {
						return nil, err
					}
				}
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				x = &SliceExpr{base: base{line}, X: x, Lo: idx, Hi: hi}
				continue
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{base: base{line}, X: x, Idx: idx}
		case p.isOp("."):
			line := p.advance().Line
			name, err := p.expectKind(TokName)
			if err != nil {
				return nil, err
			}
			x = &AttrExpr{base: base{line}, X: x, Name: name.Text}
		default:
			return x, nil
		}
	}
}

func (p *parser) atom() (Node, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.advance()
		return &NumLit{base: base{t.Line}, Value: t.Int}, nil
	case TokStr:
		p.advance()
		// Adjacent string literal concatenation.
		text := t.Text
		for p.cur().Kind == TokStr {
			text += p.advance().Text
		}
		return &StrLit{base: base{t.Line}, Value: text}, nil
	case TokName:
		p.advance()
		return &NameExpr{base: base{t.Line}, Name: t.Text}, nil
	case TokKeyword:
		switch t.Text {
		case "None", "True", "False":
			p.advance()
			return &ConstExpr{base: base{t.Line}, Kind: t.Text}, nil
		case "not":
			return p.notExpr()
		}
	case TokOp:
		switch t.Text {
		case "(":
			p.advance()
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			p.advance()
			var elems []Node
			for !p.isOp("]") {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			return &ListLit{base: base{t.Line}, Elems: elems}, nil
		case "{":
			p.advance()
			var keys, vals []Node
			for !p.isOp("}") {
				k, err := p.expr()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(":"); err != nil {
					return nil, err
				}
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				keys = append(keys, k)
				vals = append(vals, v)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp("}"); err != nil {
				return nil, err
			}
			return &DictLit{base: base{t.Line}, Keys: keys, Values: vals}, nil
		}
	}
	return nil, syntaxErrf(t.Line, "unexpected token %s", t)
}
