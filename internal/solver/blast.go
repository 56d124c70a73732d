package solver

import (
	"chef/internal/symexpr"
)

// blaster translates bit-vector expressions into CNF over a satSolver using
// Tseitin encoding. Expression nodes are cached by identity — hash-consing
// makes structurally equal nodes pointer-identical — so shared subterms are
// encoded once with a single map probe, no bucket scans or equality walks.
type blaster struct {
	sat   *satSolver
	cache map[*symexpr.Expr][]Lit
	vars  map[symexpr.Var][]Lit // SAT literals per input-variable bit
	// litTrue is a literal constrained to be true, used to encode constants.
	litTrue Lit
	// gate, when non-zero, is appended to every circuit clause emitted by the
	// gate encoders. The incremental context arms it (see act): every clause
	// belongs to the activation scope that was current when it was emitted,
	// so a scope whose activation literal is off is satisfied wholesale and
	// can never propagate — dormant circuitry costs nothing in later queries.
	gate Lit
	// owner, when non-nil, turns on activation scoping: every clause a
	// constraint's blast emits is gated with the negation of that
	// constraint's activation literal (carried in gate), each operator node
	// records the activation literal of the scope that encoded it, and a
	// memo hit from a different scope emits one (¬g_current ∨ g_owner)
	// implication instead of re-encoding. This is what lets the expression
	// memo stay shared across constraints in an incremental context:
	// asserting a constraint's assumption propagates its activation literal
	// and, transitively, the activation of every scope it borrows circuitry
	// from, while scopes no active constraint needs are satisfied wholesale
	// by their activation staying off and can never propagate.
	owner map[*symexpr.Expr]Lit
	// depSeen dedups the cross-scope implications of the constraint
	// currently being blasted (one per borrowed scope suffices, however many
	// nodes are borrowed). The incremental context resets it per constraint.
	depSeen map[Lit]bool
	// ranges records, per operator node blasted under activation scoping,
	// the SAT-variable range [v0, v1) its blast allocated (gate outputs and
	// non-shared descendants). The incremental context stamps these ranges
	// to restrict search decisions to the query's cone; see
	// Context.markActive.
	ranges map[*symexpr.Expr][2]int32
}

// add installs one circuit clause, gated when a gating literal is set.
func (b *blaster) add(lits []Lit) bool {
	if b.gate != 0 {
		lits = append(lits, b.gate)
	}
	return b.sat.addClause(lits)
}

func newBlaster(sat *satSolver) *blaster {
	b := &blaster{sat: sat, cache: map[*symexpr.Expr][]Lit{}, vars: map[symexpr.Var][]Lit{}}
	b.initTrue()
	return b
}

// reset returns b and its satSolver to the state newBlaster(newSatSolver())
// produces, keeping only the capacity of their maps and arrays.
func (b *blaster) reset() {
	b.sat.reset()
	clear(b.cache)
	clear(b.vars)
	*b = blaster{sat: b.sat, cache: b.cache, vars: b.vars}
	b.initTrue()
}

// initTrue allocates litTrue and asserts it.
func (b *blaster) initTrue() {
	b.litTrue = mkLit(b.sat.newVar(), false)
	b.sat.addClause([]Lit{b.litTrue})
}

func (b *blaster) constLit(v bool) Lit {
	if v {
		return b.litTrue
	}
	return b.litTrue.not()
}

func (b *blaster) fresh() Lit { return mkLit(b.sat.newVar(), false) }

// varBits returns (allocating on demand) the SAT literals of an input
// variable's bits, LSB first.
func (b *blaster) varBits(v symexpr.Var) []Lit {
	if bits, ok := b.vars[v]; ok {
		return bits
	}
	bits := make([]Lit, v.W)
	for i := range bits {
		bits[i] = b.fresh()
	}
	b.vars[v] = bits
	return bits
}

// gate encodings -------------------------------------------------------

// andGate returns o <-> x & y.
func (b *blaster) andGate(x, y Lit) Lit {
	if x == b.litTrue {
		return y
	}
	if y == b.litTrue {
		return x
	}
	if x == b.litTrue.not() || y == b.litTrue.not() {
		return b.litTrue.not()
	}
	if x == y {
		return x
	}
	if x == y.not() {
		return b.litTrue.not()
	}
	o := b.fresh()
	b.add([]Lit{o.not(), x})
	b.add([]Lit{o.not(), y})
	b.add([]Lit{o, x.not(), y.not()})
	return o
}

func (b *blaster) orGate(x, y Lit) Lit {
	return b.andGate(x.not(), y.not()).not()
}

// xorGate returns o <-> x ^ y.
func (b *blaster) xorGate(x, y Lit) Lit {
	if x == b.litTrue {
		return y.not()
	}
	if y == b.litTrue {
		return x.not()
	}
	if x == b.litTrue.not() {
		return y
	}
	if y == b.litTrue.not() {
		return x
	}
	if x == y {
		return b.litTrue.not()
	}
	if x == y.not() {
		return b.litTrue
	}
	o := b.fresh()
	b.add([]Lit{o.not(), x, y})
	b.add([]Lit{o.not(), x.not(), y.not()})
	b.add([]Lit{o, x.not(), y})
	b.add([]Lit{o, x, y.not()})
	return o
}

// iteGate returns o <-> (c ? t : f).
func (b *blaster) iteGate(c, t, f Lit) Lit {
	if c == b.litTrue {
		return t
	}
	if c == b.litTrue.not() {
		return f
	}
	if t == f {
		return t
	}
	o := b.fresh()
	b.add([]Lit{c.not(), t.not(), o})
	b.add([]Lit{c.not(), t, o.not()})
	b.add([]Lit{c, f.not(), o})
	b.add([]Lit{c, f, o.not()})
	return o
}

// fullAdder returns (sum, carry) for x + y + cin.
func (b *blaster) fullAdder(x, y, cin Lit) (Lit, Lit) {
	sum := b.xorGate(b.xorGate(x, y), cin)
	carry := b.orGate(b.andGate(x, y), b.andGate(cin, b.xorGate(x, y)))
	return sum, carry
}

func (b *blaster) adder(x, y []Lit, cin Lit) []Lit {
	n := len(x)
	out := make([]Lit, n)
	c := cin
	for i := 0; i < n; i++ {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out
}

func (b *blaster) negate(x []Lit) []Lit {
	inv := make([]Lit, len(x))
	for i, l := range x {
		inv[i] = l.not()
	}
	one := make([]Lit, len(x))
	for i := range one {
		one[i] = b.constLit(i == 0)
	}
	return b.adder(inv, one, b.constLit(false))
}

// blast returns the bit literals (LSB first) of an expression.
func (b *blaster) blast(e *symexpr.Expr) []Lit {
	if bits, ok := b.cache[e]; ok {
		if b.gate != 0 {
			// Reuse across scopes: one implication activates the owner's
			// whole circuit instead of re-encoding the borrowed nodes.
			if g := b.owner[e]; g != 0 && g != b.gate.not() && !b.depSeen[g] {
				b.depSeen[g] = true
				b.add([]Lit{g})
			}
		}
		return bits
	}
	var bits []Lit
	if b.owner != nil && b.gate != 0 && !e.IsConst() && !e.IsVar() {
		v0 := b.sat.numVars + 1
		bits = b.blastUncached(e)
		b.ranges[e] = [2]int32{v0, b.sat.numVars + 1}
		b.owner[e] = b.gate.not()
	} else {
		bits = b.blastUncached(e)
	}
	b.cache[e] = bits
	return bits
}

func (b *blaster) blastUncached(e *symexpr.Expr) []Lit {
	w := int(e.Width())
	if e.IsConst() {
		v := e.ConstVal()
		bits := make([]Lit, w)
		for i := 0; i < w; i++ {
			bits[i] = b.constLit(v>>uint(i)&1 == 1)
		}
		return bits
	}
	if e.IsVar() {
		return b.varBits(e.VarRef())
	}
	switch e.Op() {
	case symexpr.OpNot:
		x := b.blast(e.Child(0))
		out := make([]Lit, w)
		for i := range out {
			out[i] = x[i].not()
		}
		return out
	case symexpr.OpNeg:
		return b.negate(b.blast(e.Child(0)))
	case symexpr.OpZExt:
		x := b.blast(e.Child(0))
		out := make([]Lit, w)
		for i := range out {
			if i < len(x) {
				out[i] = x[i]
			} else {
				out[i] = b.constLit(false)
			}
		}
		return out
	case symexpr.OpSExt:
		x := b.blast(e.Child(0))
		out := make([]Lit, w)
		for i := range out {
			if i < len(x) {
				out[i] = x[i]
			} else {
				out[i] = x[len(x)-1]
			}
		}
		return out
	case symexpr.OpTrunc:
		x := b.blast(e.Child(0))
		return append([]Lit(nil), x[:w]...)
	case symexpr.OpIte:
		c := b.blast(e.Child(0))[0]
		t := b.blast(e.Child(1))
		f := b.blast(e.Child(2))
		out := make([]Lit, w)
		for i := range out {
			out[i] = b.iteGate(c, t[i], f[i])
		}
		return out
	}
	x := b.blast(e.Child(0))
	y := b.blast(e.Child(1))
	switch e.Op() {
	case symexpr.OpAnd:
		out := make([]Lit, w)
		for i := range out {
			out[i] = b.andGate(x[i], y[i])
		}
		return out
	case symexpr.OpOr:
		out := make([]Lit, w)
		for i := range out {
			out[i] = b.orGate(x[i], y[i])
		}
		return out
	case symexpr.OpXor:
		out := make([]Lit, w)
		for i := range out {
			out[i] = b.xorGate(x[i], y[i])
		}
		return out
	case symexpr.OpAdd:
		return b.adder(x, y, b.constLit(false))
	case symexpr.OpSub:
		inv := make([]Lit, len(y))
		for i, l := range y {
			inv[i] = l.not()
		}
		return b.adder(x, inv, b.constLit(true))
	case symexpr.OpMul:
		return b.multiplier(x, y)
	case symexpr.OpUDiv:
		q, _ := b.divider(x, y)
		return q
	case symexpr.OpURem:
		_, r := b.divider(x, y)
		return r
	case symexpr.OpShl:
		return b.shifter(x, y, false)
	case symexpr.OpLShr:
		return b.shifter(x, y, true)
	case symexpr.OpEq:
		acc := b.constLit(true)
		for i := range x {
			acc = b.andGate(acc, b.xorGate(x[i], y[i]).not())
		}
		return []Lit{acc}
	case symexpr.OpUlt:
		return []Lit{b.ultGate(x, y)}
	case symexpr.OpUle:
		return []Lit{b.ultGate(y, x).not()}
	case symexpr.OpSlt:
		return []Lit{b.sltGate(x, y)}
	case symexpr.OpSle:
		return []Lit{b.sltGate(y, x).not()}
	}
	panic("solver: blast: unhandled op " + e.Op().String())
}

// ultGate returns a literal for unsigned x < y, LSB-first operands.
func (b *blaster) ultGate(x, y []Lit) Lit {
	lt := b.constLit(false)
	for i := 0; i < len(x); i++ {
		eqi := b.xorGate(x[i], y[i]).not()
		lti := b.andGate(x[i].not(), y[i])
		lt = b.orGate(lti, b.andGate(eqi, lt))
	}
	return lt
}

func (b *blaster) sltGate(x, y []Lit) Lit {
	n := len(x)
	sx, sy := x[n-1], y[n-1]
	// Compare magnitudes with flipped sign bits: slt(x,y) = ult(x^MSB, y^MSB)
	x2 := append(append([]Lit(nil), x[:n-1]...), sx.not())
	y2 := append(append([]Lit(nil), y[:n-1]...), sy.not())
	return b.ultGate(x2, y2)
}

// multiplier builds a shift-and-add multiplier. When one operand is constant
// the blast of that operand consists of constant literals, and the adder rows
// for zero bits collapse through gate-level simplification.
func (b *blaster) multiplier(x, y []Lit) []Lit {
	n := len(x)
	acc := make([]Lit, n)
	for i := range acc {
		acc[i] = b.constLit(false)
	}
	for i := 0; i < n; i++ {
		if y[i] == b.constLit(false) {
			continue
		}
		// row = (x << i) AND y[i]
		row := make([]Lit, n)
		for j := 0; j < n; j++ {
			if j < i {
				row[j] = b.constLit(false)
			} else {
				row[j] = b.andGate(x[j-i], y[i])
			}
		}
		acc = b.adder(acc, row, b.constLit(false))
	}
	return acc
}

// divider builds a restoring divider returning (quotient, remainder) with the
// SMT-LIB convention that division by zero yields all-ones / the dividend.
func (b *blaster) divider(x, y []Lit) ([]Lit, []Lit) {
	n := len(x)
	q := make([]Lit, n)
	r := make([]Lit, n)
	for i := range r {
		r[i] = b.constLit(false)
	}
	for i := n - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		nr := make([]Lit, n)
		nr[0] = x[i]
		copy(nr[1:], r[:n-1])
		r = nr
		// if r >= y: r -= y; q[i] = 1
		ge := b.ultGate(r, y).not()
		inv := make([]Lit, n)
		for j, l := range y {
			inv[j] = l.not()
		}
		sub := b.adder(r, inv, b.constLit(true))
		for j := 0; j < n; j++ {
			r[j] = b.iteGate(ge, sub[j], r[j])
		}
		q[i] = ge
	}
	// Division by zero: q = all ones, r = x.
	yZero := b.constLit(true)
	for _, l := range y {
		yZero = b.andGate(yZero, l.not())
	}
	for i := 0; i < n; i++ {
		q[i] = b.iteGate(yZero, b.constLit(true), q[i])
		r[i] = b.iteGate(yZero, x[i], r[i])
	}
	return q, r
}

// shifter builds a logarithmic barrel shifter.
func (b *blaster) shifter(x, amt []Lit, right bool) []Lit {
	n := len(x)
	cur := append([]Lit(nil), x...)
	// Stages for each bit of the shift amount that can matter.
	for s := 0; s < len(amt) && (1<<uint(s)) < 2*n; s++ {
		sh := 1 << uint(s)
		next := make([]Lit, n)
		for i := 0; i < n; i++ {
			var from Lit
			if right {
				if i+sh < n {
					from = cur[i+sh]
				} else {
					from = b.constLit(false)
				}
			} else {
				if i-sh >= 0 {
					from = cur[i-sh]
				} else {
					from = b.constLit(false)
				}
			}
			next[i] = b.iteGate(amt[s], from, cur[i])
		}
		cur = next
	}
	// Shift amounts >= width yield zero: OR of high amount bits forces zero.
	var tooBig Lit = b.constLit(false)
	for s := 0; s < len(amt); s++ {
		if 1<<uint(s) >= 2*n {
			tooBig = b.orGate(tooBig, amt[s])
		}
	}
	if tooBig != b.constLit(false) {
		for i := range cur {
			cur[i] = b.iteGate(tooBig, b.constLit(false), cur[i])
		}
	}
	return cur
}

// assertTrue forces a width-1 expression to hold.
func (b *blaster) assertTrue(e *symexpr.Expr) bool {
	bits := b.blast(e)
	return b.sat.addClause([]Lit{bits[0]})
}
