package symexpr

// Assignment maps input variables to concrete values. Values are stored
// masked to the variable width.
type Assignment map[Var]uint64

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Eval evaluates the expression under the assignment. Unassigned variables
// evaluate to zero, which matches the engine's convention that fresh
// symbolic inputs default to zero bytes.
func Eval(e *Expr, a Assignment) uint64 {
	switch {
	case e.IsConst():
		return e.val
	case e.IsVar():
		return a[*e.varr] & e.w.Mask()
	}
	switch e.op {
	case OpNot:
		return ^Eval(e.kids[0], a) & e.w.Mask()
	case OpNeg:
		return -Eval(e.kids[0], a) & e.w.Mask()
	case OpZExt:
		return Eval(e.kids[0], a)
	case OpSExt:
		return uint64(signExtend(Eval(e.kids[0], a), e.kids[0].w)) & e.w.Mask()
	case OpTrunc:
		return Eval(e.kids[0], a) & e.w.Mask()
	case OpIte:
		if Eval(e.kids[0], a) != 0 {
			return Eval(e.kids[1], a)
		}
		return Eval(e.kids[2], a)
	default:
		x := Eval(e.kids[0], a)
		y := Eval(e.kids[1], a)
		return foldBin(e.op, x, y, e.kids[0].w)
	}
}

// EvalBool evaluates a width-1 expression as a boolean.
func EvalBool(e *Expr, a Assignment) bool { return Eval(e, a) != 0 }
