package solver

import (
	"math/rand"
	"path/filepath"
	"testing"

	sx "chef/internal/symexpr"
)

// Differential solver-oracle suite: the production solver — with and without
// the cache, slicing and the persistent store — must agree with the
// brute-force oracle on satisfiability, and every Sat model it returns must
// actually satisfy the query under the interpreter semantics.
//
// The query generator draws from a small variable pool (one byte plus two
// booleans, 10 total bits) so the oracle enumerates at most 1024 assignments
// per query; the constraint shapes cover every operator family the engine
// emits (arithmetic, bitwise, shifts, signed/unsigned comparisons, ite,
// boolean structure).

var oraclePool = []sx.Var{
	{Buf: "a", W: sx.W8},
	{Buf: "p", W: sx.W1},
	{Buf: "q", W: sx.W1},
}

// oracleTerm builds a random W8 term over the pool.
func oracleTerm(r *rand.Rand, depth int) *sx.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return sx.NewVar(oraclePool[0])
		}
		return sx.Const(uint64(r.Intn(256)), sx.W8)
	}
	x := oracleTerm(r, depth-1)
	switch r.Intn(10) {
	case 0:
		return sx.Neg(x)
	case 1:
		return sx.Not(x)
	case 2:
		return sx.Ite(oracleBool(r, 0), x, oracleTerm(r, depth-1))
	case 3:
		return sx.ZExt(sx.NewVar(oraclePool[1+r.Intn(2)]), sx.W8)
	default:
		y := oracleTerm(r, depth-1)
		ops := []func(a, b *sx.Expr) *sx.Expr{
			sx.Add, sx.Sub, sx.Mul, sx.And, sx.Or, sx.Xor, sx.UDiv, sx.URem, sx.Shl, sx.LShr,
		}
		return ops[r.Intn(len(ops))](x, y)
	}
}

// oracleBool builds a random W1 constraint over the pool.
func oracleBool(r *rand.Rand, depth int) *sx.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return sx.NewVar(oraclePool[1])
		case 1:
			return sx.NewVar(oraclePool[2])
		default:
			cmps := []func(a, b *sx.Expr) *sx.Expr{sx.Eq, sx.Ne, sx.Ult, sx.Ule, sx.Slt, sx.Sle}
			return cmps[r.Intn(len(cmps))](oracleTerm(r, 1), oracleTerm(r, 1))
		}
	}
	switch r.Intn(4) {
	case 0:
		return sx.Not(oracleBool(r, depth-1))
	case 1:
		return sx.BoolAnd(oracleBool(r, depth-1), oracleBool(r, depth-1))
	case 2:
		return sx.BoolOr(oracleBool(r, depth-1), oracleBool(r, depth-1))
	default:
		cmps := []func(a, b *sx.Expr) *sx.Expr{sx.Eq, sx.Ne, sx.Ult, sx.Ule, sx.Slt, sx.Sle}
		return cmps[r.Intn(len(cmps))](oracleTerm(r, 2), oracleTerm(r, 2))
	}
}

// oracleQuery is one generated trial: a conjunction plus an optional base
// assignment (exercising the slicing path).
type oracleQuery struct {
	pc     []*sx.Expr
	base   sx.Assignment
	want   Result
	checks int // constraints, for reporting
}

func genOracleQueries(t testing.TB, n int, seed int64) []oracleQuery {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]oracleQuery, 0, n)
	for len(out) < n {
		k := 1 + r.Intn(4)
		pc := make([]*sx.Expr, 0, k)
		for i := 0; i < k; i++ {
			pc = append(pc, oracleBool(r, 2))
		}
		var base sx.Assignment
		if r.Intn(2) == 0 {
			base = sx.Assignment{}
			for _, v := range oraclePool {
				base[v] = r.Uint64() & v.W.Mask()
			}
		}
		want, _, feasible := OracleCheck(pc)
		if !feasible {
			t.Fatalf("query over fixed pool infeasible for oracle: %v", pc)
		}
		out = append(out, oracleQuery{pc: pc, base: base, want: want, checks: k})
	}
	return out
}

// checkAgainstOracle runs one query through s and compares with the oracle
// verdict, validating the model on Sat.
func checkAgainstOracle(t *testing.T, cfg string, i int, q oracleQuery, s *Solver) (Result, sx.Assignment) {
	t.Helper()
	res, model := s.CheckQuery(Query{PC: q.pc, Base: q.base})
	if res != q.want {
		t.Fatalf("[%s] query %d: solver=%v oracle=%v pc=%v base=%v", cfg, i, res, q.want, q.pc, q.base)
	}
	if res == Sat {
		for _, c := range q.pc {
			if !sx.EvalBool(c, model) {
				t.Fatalf("[%s] query %d: returned model %v violates %v", cfg, i, model, c)
			}
		}
	}
	return res, model
}

// TestSolverMatchesOracle cross-checks both slicing settings, with and
// without the counterexample cache, on the same generated query set.
// Together with the warm/cold persistent pass below, the suite compares
// thousands of (query, configuration) pairs.
func TestSolverMatchesOracle(t *testing.T) {
	n := 400
	if !testing.Short() {
		n = 1500
	}
	queries := genOracleQueries(t, n, 424242)

	for _, noSlice := range []bool{false, true} {
		cfg := "default"
		if noSlice {
			cfg = "noslice"
		}
		s := New(Options{DisableSlicing: noSlice})
		for i, q := range queries {
			checkAgainstOracle(t, cfg, i, q, s)
		}
	}
	// No cache at all, as the control: every query reaches the backend.
	s := New(Options{DisableCache: true})
	for i, q := range queries {
		checkAgainstOracle(t, "nocache", i, q, s)
	}
}

// TestSolverMatchesOraclePersistent runs the query set cold with a fresh
// persistent store, then warm from the written file, checking both passes
// against the oracle and checking the warm pass returns bit-identical
// results — verdict, model and accumulated propagation count — to the cold
// one.
func TestSolverMatchesOraclePersistent(t *testing.T) {
	n := 300
	if !testing.Short() {
		n = 1000
	}
	queries := genOracleQueries(t, n, 99991)
	path := filepath.Join(t.TempDir(), "cxc.bin")

	type outcome struct {
		res   Result
		model sx.Assignment
	}
	runPass := func(label string) ([]outcome, Stats) {
		store, err := OpenPersistentStore(path)
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		defer func() {
			if err := store.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
		}()
		if cerr := store.Corruption(); cerr != nil {
			t.Fatalf("%s: unexpected corruption: %v", label, cerr)
		}
		s := New(Options{Persist: store.View()})
		outs := make([]outcome, 0, len(queries))
		for i, q := range queries {
			res, model := checkAgainstOracle(t, label, i, q, s)
			outs = append(outs, outcome{res, model})
		}
		return outs, s.Stats()
	}

	cold, coldStats := runPass("cold")
	// A fully-warm store replays every cold verdict, model and cost
	// byte-for-byte: the cold pass recorded the whole stream.
	warm, warmStats := runPass("warm")
	if warmStats.CacheHitsPersist == 0 {
		t.Fatal("warm pass recorded no persistent hits")
	}
	if coldStats.Propagations != warmStats.Propagations {
		t.Fatalf("virtual cost diverged: cold %d, warm %d propagations",
			coldStats.Propagations, warmStats.Propagations)
	}
	if coldStats.SatQueries != warmStats.SatQueries || coldStats.UnsatQueries != warmStats.UnsatQueries {
		t.Fatalf("solve counters diverged: cold %+v warm %+v", coldStats, warmStats)
	}
	for i := range cold {
		if cold[i].res != warm[i].res {
			t.Fatalf("query %d: cold %v, warm %v", i, cold[i].res, warm[i].res)
		}
		if !sameModel(cold[i].model, warm[i].model) {
			t.Fatalf("query %d: cold model %v, warm model %v", i, cold[i].model, warm[i].model)
		}
	}
}

func sameModel(a, b sx.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		bv, ok := b[k]
		if !ok || bv != v {
			return false
		}
	}
	return true
}
