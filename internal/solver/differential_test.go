package solver

import (
	"math/rand"
	"testing"

	sx "chef/internal/symexpr"
)

// randExpr builds a random expression over the given byte variables.
func randExpr(r *rand.Rand, depth int) *sx.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return sx.NewVar(sx.Var{Buf: "v", Idx: r.Intn(3), W: sx.W8})
		case 1:
			return sx.Const(uint64(r.Intn(256)), sx.W8)
		default:
			return sx.NewVar(sx.Var{Buf: "w", Idx: r.Intn(2), W: sx.W8})
		}
	}
	x := randExpr(r, depth-1)
	switch r.Intn(12) {
	case 0:
		return sx.Not(x)
	case 1:
		return sx.Neg(x)
	default:
		y := randExpr(r, depth-1)
		ops := []func(a, b *sx.Expr) *sx.Expr{
			sx.Add, sx.Sub, sx.Mul, sx.And, sx.Or, sx.Xor, sx.UDiv, sx.URem, sx.Shl, sx.LShr,
		}
		return ops[r.Intn(len(ops))](x, y)
	}
}

// TestBlastAgreesWithEval is the solver's strongest correctness property:
// for a random expression e and random environment env, the constraint
// e == Eval(e, env) must be satisfiable, and the returned model must itself
// satisfy it under the evaluator. This exercises every gate encoder (adder,
// multiplier, divider, shifter, comparators) against the interpreter-side
// semantics in symexpr.
func TestBlastAgreesWithEval(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	s := New(Options{DisableCache: true})
	for trial := 0; trial < 120; trial++ {
		e := randExpr(r, 4)
		env := sx.Assignment{}
		for _, v := range exprVars(e) {
			env[v] = uint64(r.Intn(256))
		}
		want := sx.Eval(e, env)
		// Constrain every variable to its env value, plus the derived value.
		var cs []*sx.Expr
		for v, val := range env {
			cs = append(cs, sx.Eq(sx.NewVar(v), sx.Const(val, v.W)))
		}
		cs = append(cs, sx.Eq(e, sx.Const(want, e.Width())))
		res, model := s.Check(cs, nil)
		if res != Sat {
			t.Fatalf("trial %d: e=%v env=%v want=%d: solver says %v (blast/eval disagreement)",
				trial, e, env, want, res)
		}
		for _, c := range cs {
			if !sx.EvalBool(c, model) {
				t.Fatalf("trial %d: model %v violates %v", trial, model, c)
			}
		}
		// And the contradiction must be unsat.
		cs[len(cs)-1] = sx.Ne(e, sx.Const(want, e.Width()))
		res, _ = s.Check(cs, nil)
		if res != Unsat {
			t.Fatalf("trial %d: e=%v env=%v: negated value says %v, want unsat", trial, e, env, res)
		}
	}
}

// TestBlastWiderWidths repeats the agreement check at widths 16/32/64 with
// conversions in the mix.
func TestBlastWiderWidths(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	s := New(Options{DisableCache: true})
	widths := []sx.Width{sx.W16, sx.W32, sx.W64}
	for trial := 0; trial < 40; trial++ {
		w := widths[r.Intn(len(widths))]
		a := sx.ZExt(sx.NewVar(sx.Var{Buf: "a", W: sx.W8}), w)
		bVar := sx.Var{Buf: "b", W: w}
		b := sx.NewVar(bVar)
		var e *sx.Expr
		switch r.Intn(5) {
		case 0:
			e = sx.Add(sx.Mul(a, sx.Const(31, w)), b)
		case 1:
			e = sx.Sub(sx.Xor(a, b), sx.Const(uint64(r.Intn(1000)), w))
		case 2:
			e = sx.LShr(b, sx.Const(uint64(r.Intn(int(w))), w))
		case 3:
			e = sx.Trunc(sx.Mul(sx.ZExt(a, sx.W64), sx.ZExt(b, sx.W64)), w)
		default:
			e = sx.URem(b, sx.Add(a, sx.Const(1, w)))
		}
		env := sx.Assignment{
			{Buf: "a", W: sx.W8}: uint64(r.Intn(256)),
			bVar:                 r.Uint64() & w.Mask(),
		}
		want := sx.Eval(e, env)
		cs := []*sx.Expr{
			sx.Eq(sx.NewVar(sx.Var{Buf: "a", W: sx.W8}), sx.Const(env[sx.Var{Buf: "a", W: sx.W8}], sx.W8)),
			sx.Eq(b, sx.Const(env[bVar], w)),
			sx.Eq(e, sx.Const(want, w)),
		}
		res, model := s.Check(cs, nil)
		if res != Sat {
			t.Fatalf("trial %d (w=%d): %v under %v should be sat (want %d)", trial, w, e, env, want)
		}
		for _, c := range cs {
			if !sx.EvalBool(c, model) {
				t.Fatalf("trial %d: model violates %v", trial, c)
			}
		}
	}
}

// TestMaximizeProperty: Maximize's result must be attainable and maximal.
func TestMaximizeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	s := New(Options{})
	for trial := 0; trial < 30; trial++ {
		x := sx.NewVar(sx.Var{Buf: "x", W: sx.W8})
		bound := uint64(1 + r.Intn(255))
		pc := []*sx.Expr{sx.Ult(x, sx.Const(bound, sx.W8))}
		got, ok := s.Maximize(x, Query{PC: pc, Base: sx.Assignment{}})
		if !ok {
			t.Fatalf("trial %d: maximize failed for bound %d", trial, bound)
		}
		if got != bound-1 {
			t.Fatalf("trial %d: max under x<%d = %d, want %d", trial, bound, got, bound-1)
		}
	}
}

// TestSlicingEquivalence: with and without slicing, satisfiability verdicts
// must agree (models may differ).
func TestSlicingEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	for trial := 0; trial < 30; trial++ {
		full := New(Options{DisableCache: true})
		noslice := New(Options{DisableCache: true, DisableSlicing: true})
		// Two independent groups, one satisfied by base, one random.
		base := sx.Assignment{
			{Buf: "p", W: sx.W8}: 5,
			{Buf: "q", W: sx.W8}: uint64(r.Intn(256)),
		}
		k := uint64(r.Intn(256))
		cs := []*sx.Expr{
			sx.Eq(sx.NewVar(sx.Var{Buf: "p", W: sx.W8}), sx.Const(5, sx.W8)),
			sx.Ult(sx.NewVar(sx.Var{Buf: "q", W: sx.W8}), sx.Const(k, sx.W8)),
		}
		r1, m1 := full.Check(cs, base)
		r2, m2 := noslice.Check(cs, base)
		if r1 != r2 {
			t.Fatalf("trial %d: slicing changes verdict: %v vs %v (k=%d)", trial, r1, r2, k)
		}
		if r1 == Sat {
			for _, c := range cs {
				if !sx.EvalBool(c, m1) || !sx.EvalBool(c, m2) {
					t.Fatalf("trial %d: some model invalid", trial)
				}
			}
		}
	}
}
