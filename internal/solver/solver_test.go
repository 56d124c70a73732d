package solver

import (
	"math/rand"
	"testing"

	"chef/internal/obs"
	sx "chef/internal/symexpr"
)

func v8(name string, idx int) *sx.Expr { return sx.NewVar(sx.Var{Buf: name, Idx: idx, W: sx.W8}) }
func v32(name string) *sx.Expr         { return sx.NewVar(sx.Var{Buf: name, W: sx.W32}) }
func c8(v uint64) *sx.Expr             { return sx.Const(v, sx.W8) }
func c32(v uint64) *sx.Expr            { return sx.Const(v, sx.W32) }
func pc(es ...*sx.Expr) []*sx.Expr     { return es }
func checkModel(t *testing.T, constraints []*sx.Expr, m sx.Assignment) {
	t.Helper()
	for _, c := range constraints {
		if !sx.EvalBool(c, m) {
			t.Fatalf("model %v does not satisfy %v", m, c)
		}
	}
}

func TestSatSimpleEquality(t *testing.T) {
	s := New(Options{})
	x := v8("x", 0)
	res, m := s.CheckQuery(Query{PC: pc(sx.Eq(x, c8(42)))})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	if m[sx.Var{Buf: "x", W: sx.W8}] != 42 {
		t.Fatalf("model = %v, want x=42", m)
	}
}

func TestUnsatContradiction(t *testing.T) {
	s := New(Options{})
	x := v8("x", 0)
	res, _ := s.CheckQuery(Query{PC: pc(sx.Eq(x, c8(1)), sx.Eq(x, c8(2)))})
	if res != Unsat {
		t.Fatalf("got %v, want unsat", res)
	}
}

func TestArithmeticConstraint(t *testing.T) {
	s := New(Options{})
	x := v32("x")
	// 3*x == 45 && x < 100
	cs := pc(sx.Eq(sx.Mul(c32(3), x), c32(45)), sx.Ult(x, c32(100)))
	res, m := s.CheckQuery(Query{PC: cs})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	checkModel(t, cs, m)
	if m[sx.Var{Buf: "x", W: sx.W32}] != 15 {
		t.Fatalf("model = %v, want x=15", m)
	}
}

func TestSignedComparison(t *testing.T) {
	s := New(Options{})
	x := v32("x")
	// x < 0 signed && x > -10 signed
	minus10 := c32(uint64(uint32(0xfffffff6)))
	cs := pc(sx.Slt(x, c32(0)), sx.Slt(minus10, x))
	res, m := s.CheckQuery(Query{PC: cs})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	checkModel(t, cs, m)
	got := sx.SignExtendConst(m[sx.Var{Buf: "x", W: sx.W32}], sx.W32)
	if got >= 0 || got <= -10 {
		t.Fatalf("x = %d, want in (-10, 0)", got)
	}
}

func TestDivRemConstraints(t *testing.T) {
	s := New(Options{})
	x := v8("x", 0)
	// x / 7 == 3 && x % 7 == 2  => x == 23
	cs := pc(sx.Eq(sx.UDiv(x, c8(7)), c8(3)), sx.Eq(sx.URem(x, c8(7)), c8(2)))
	res, m := s.CheckQuery(Query{PC: cs})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	if m[sx.Var{Buf: "x", W: sx.W8}] != 23 {
		t.Fatalf("model = %v, want x=23", m)
	}
}

func TestShiftConstraints(t *testing.T) {
	s := New(Options{})
	x := v8("x", 0)
	cs := pc(sx.Eq(sx.Shl(x, c8(2)), c8(0x54)), sx.Ult(x, c8(0x40)))
	res, m := s.CheckQuery(Query{PC: cs})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	checkModel(t, cs, m)
}

func TestStringLikeByteConstraints(t *testing.T) {
	// The shape produced by symbolic string comparisons: conjunction of
	// per-byte equalities and inequalities.
	s := New(Options{})
	var cs []*sx.Expr
	want := []byte("hello")
	for i, b := range want {
		cs = append(cs, sx.Eq(v8("s", i), c8(uint64(b))))
	}
	cs = append(cs, sx.Not(sx.Eq(v8("s", 5), c8(0))))
	res, m := s.CheckQuery(Query{PC: cs})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	for i, b := range want {
		if m[sx.Var{Buf: "s", Idx: i, W: sx.W8}] != uint64(b) {
			t.Fatalf("byte %d = %d, want %d", i, m[sx.Var{Buf: "s", Idx: i, W: sx.W8}], b)
		}
	}
	if m[sx.Var{Buf: "s", Idx: 5, W: sx.W8}] == 0 {
		t.Fatal("byte 5 must be nonzero")
	}
}

func TestHashInversionShape(t *testing.T) {
	// h = ((b0*31)+b1)*31+b2 ; ask the solver to invert it, as a symbolic
	// hash-table insertion would (the paper's motivation for hash
	// neutralization). Small width keeps it tractable.
	s := New(Options{})
	h := sx.ZExt(v8("k", 0), sx.W32)
	h = sx.Add(sx.Mul(h, c32(31)), sx.ZExt(v8("k", 1), sx.W32))
	h = sx.Add(sx.Mul(h, c32(31)), sx.ZExt(v8("k", 2), sx.W32))
	target := uint64(uint32('a')*31*31 + uint32('b')*31 + uint32('c'))
	cs := pc(sx.Eq(h, c32(target)))
	res, m := s.CheckQuery(Query{PC: cs})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	checkModel(t, cs, m)
}

func TestSlicingReusesBaseValues(t *testing.T) {
	s := New(Options{})
	base := sx.Assignment{
		sx.Var{Buf: "a", W: sx.W8}: 10,
		sx.Var{Buf: "b", W: sx.W8}: 20,
	}
	// Group 1 (a) is satisfied by base; group 2 (b) is not.
	cs := pc(
		sx.Eq(v8("a", 0), c8(10)),
		sx.Eq(v8("b", 0), c8(99)),
	)
	res, m := s.CheckQuery(Query{PC: cs, Base: base})
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	if m[sx.Var{Buf: "a", W: sx.W8}] != 10 {
		t.Fatalf("a should be kept from base, got %v", m)
	}
	if m[sx.Var{Buf: "b", W: sx.W8}] != 99 {
		t.Fatalf("b should be solved to 99, got %v", m)
	}
}

func TestCacheHits(t *testing.T) {
	s := New(Options{})
	x := v8("x", 0)
	cs := pc(sx.Eq(x, c8(7)))
	s.CheckQuery(Query{PC: cs})
	before := s.Stats().CacheHits
	s.CheckQuery(Query{PC: cs})
	if s.Stats().CacheHits != before+1 {
		t.Fatalf("expected a cache hit, stats: %+v", s.Stats())
	}
}

func TestCacheDisabled(t *testing.T) {
	s := New(Options{DisableCache: true})
	x := v8("x", 0)
	cs := pc(sx.Eq(x, c8(7)))
	s.CheckQuery(Query{PC: cs})
	s.CheckQuery(Query{PC: cs})
	if s.Stats().CacheHits != 0 {
		t.Fatalf("cache disabled but got hits: %+v", s.Stats())
	}
}

func TestMaximize(t *testing.T) {
	s := New(Options{})
	x := v8("x", 0)
	// x < 100 => max is 99
	got, ok := s.Maximize(x, Query{PC: pc(sx.Ult(x, c8(100))), Base: sx.Assignment{}})
	if !ok || got != 99 {
		t.Fatalf("Maximize = %d, %v; want 99, true", got, ok)
	}
	// Unconstrained: max is 255.
	got, ok = s.Maximize(x, Query{Base: sx.Assignment{}})
	if !ok || got != 255 {
		t.Fatalf("Maximize unconstrained = %d, %v; want 255, true", got, ok)
	}
	// Constant expression.
	got, ok = s.Maximize(c8(13), Query{})
	if !ok || got != 13 {
		t.Fatalf("Maximize const = %d, %v; want 13, true", got, ok)
	}
	// Unsat path condition.
	_, ok = s.Maximize(x, Query{PC: pc(sx.Ult(x, c8(0))), Base: sx.Assignment{}})
	if ok {
		t.Fatal("Maximize should fail on unsat pc")
	}
}

func TestBudgetExhaustionReturnsUnknown(t *testing.T) {
	s := New(Options{PropBudget: 1, DisableCache: true, DisableSlicing: true})
	// A multiplication of two symbolic 32-bit values needs real work.
	x, y := v32("x"), v32("y")
	cs := pc(sx.Eq(sx.Mul(x, y), c32(0x12345678)), sx.Not(sx.Eq(x, c32(1))), sx.Not(sx.Eq(y, c32(1))))
	res, _ := s.CheckQuery(Query{PC: cs})
	if res == Sat {
		// With budget 1 the solver must not be able to finish real work;
		// trivial simplification could still decide it, so only Sat-with-
		// wrong-model would be an error. Verify by evaluation if Sat.
		t.Log("solver finished despite tiny budget; acceptable if model valid")
	}
	if res != Unknown && res != Sat && res != Unsat {
		t.Fatalf("invalid result %v", res)
	}
}

// Property: for random constraint systems built from byte comparisons, a Sat
// answer always carries a satisfying model, and concrete evaluation agrees.
func TestRandomByteSystemsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := New(Options{})
	for trial := 0; trial < 60; trial++ {
		nv := 2 + r.Intn(3)
		var cs []*sx.Expr
		// Build a random satisfiable system from a hidden solution.
		hidden := make([]uint64, nv)
		for i := range hidden {
			hidden[i] = uint64(r.Intn(256))
		}
		for k := 0; k < 4; k++ {
			i, j := r.Intn(nv), r.Intn(nv)
			a, b := v8("z", i), v8("z", j)
			switch r.Intn(4) {
			case 0:
				cs = append(cs, sx.Eq(sx.Add(a, b), c8((hidden[i]+hidden[j])&0xff)))
			case 1:
				cs = append(cs, sx.Eq(sx.Xor(a, b), c8(hidden[i]^hidden[j])))
			case 2:
				if hidden[i] < hidden[j] {
					cs = append(cs, sx.Ult(a, b))
				} else {
					cs = append(cs, sx.Ule(b, a))
				}
			case 3:
				cs = append(cs, sx.Eq(a, c8(hidden[i])))
			}
		}
		res, m := s.CheckQuery(Query{PC: cs})
		if res != Sat {
			t.Fatalf("trial %d: constructed-satisfiable system reported %v: %v", trial, res, cs)
		}
		checkModel(t, cs, m)
	}
}

// Property: systems made contradictory by construction must be Unsat.
func TestRandomUnsatSystemsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	s := New(Options{})
	for trial := 0; trial < 40; trial++ {
		x := v8("u", trial)
		k := uint64(r.Intn(255))
		cs := pc(
			sx.Ult(x, c8(k+1)), // x <= k
			sx.Ult(c8(k), x),   // x > k
		)
		res, _ := s.CheckQuery(Query{PC: cs})
		if res != Unsat {
			t.Fatalf("trial %d: contradictory system reported %v", trial, res)
		}
	}
}

// TestStatsAccumulate checks the per-query counters, including on exact
// cache hits: the second pass repeats both queries, and every query still
// counts its verdict. Publish hands the registry the same numbers.
func TestStatsAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Metrics: reg})
	x := v8("x", 0)
	for pass := 1; pass <= 2; pass++ {
		s.CheckQuery(Query{PC: pc(sx.Eq(x, c8(1)))})
		s.CheckQuery(Query{PC: pc(sx.Eq(x, c8(1)), sx.Eq(x, c8(2)))})
		st := s.Stats()
		if st.Queries != int64(2*pass) || st.SatQueries != int64(pass) || st.UnsatQueries != int64(pass) ||
			st.CacheHitsExact != int64(2*pass-2) {
			t.Fatalf("pass %d stats: %+v", pass, st)
		}
	}
	st := s.Stats()
	s.Publish()
	for name, want := range map[string]int64{
		obs.MSolverQueries:        st.Queries,
		obs.MSolverSat:            st.SatQueries,
		obs.MSolverUnsat:          st.UnsatQueries,
		obs.MSolverUnknown:        st.Unknowns,
		obs.MSolverCacheHits:      st.CacheHits,
		obs.MSolverCacheHitsExact: st.CacheHitsExact,
		obs.MSolverCacheMisses:    st.CacheMisses,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestEmptyAndTrivialQueries(t *testing.T) {
	s := New(Options{})
	if res, _ := s.CheckQuery(Query{PC: nil}); res != Sat {
		t.Fatal("empty pc must be sat")
	}
	if res, _ := s.CheckQuery(Query{PC: pc(sx.True)}); res != Sat {
		t.Fatal("trivially true pc must be sat")
	}
	if res, _ := s.CheckQuery(Query{PC: pc(sx.False)}); res != Unsat {
		t.Fatal("trivially false pc must be unsat")
	}
}

func TestCacheModelNotPolluted(t *testing.T) {
	// Regression: a cache hit must not leak base-specific kept values into
	// the cached model; a later query with a different base would otherwise
	// receive stale values and produce inputs violating its path condition.
	s := New(Options{})
	target := sx.Ult(c8(100), v8("c", 0)) // c > 100, the group to solve
	baseA := sx.Assignment{
		sx.Var{Buf: "a", W: sx.W8}: 0,
		sx.Var{Buf: "c", W: sx.W8}: 0,
	}
	csA := pc(sx.Ule(v8("a", 0), c8(100)), target) // a <= 100 satisfied by baseA
	res, mA := s.CheckQuery(Query{PC: csA, Base: baseA})
	if res != Sat {
		t.Fatalf("query A: %v", res)
	}
	checkModel(t, csA, mA)
	// Same sliced subquery (target), but now "a" must be > 100.
	baseB := sx.Assignment{
		sx.Var{Buf: "a", W: sx.W8}: 200,
		sx.Var{Buf: "c", W: sx.W8}: 0,
	}
	csB := pc(sx.Ult(c8(100), v8("a", 0)), target)
	res, mB := s.CheckQuery(Query{PC: csB, Base: baseB})
	if res != Sat {
		t.Fatalf("query B: %v", res)
	}
	checkModel(t, csB, mB)
	if mB[sx.Var{Buf: "a", W: sx.W8}] != 200 {
		t.Fatalf("kept value for a = %d, want 200 (cache pollution)", mB[sx.Var{Buf: "a", W: sx.W8}])
	}
}
