package solver

import (
	"math"
	"math/rand"
	"testing"

	"chef/internal/obs"
	sx "chef/internal/symexpr"
)

// TestOneshotReuseMatchesFresh pins the oneshot backend's reset hygiene: a
// Solver that reuses one satSolver and blaster across a query stream must
// answer every query exactly like a fresh Solver built for that query alone
// — same verdict, same model, same propagation, conflict and clause counts.
// Cache and slicing are off so every query reaches the backend. The stream
// mixes the oracle generator's queries with the awkward exits: a blast that
// ends Unsat inside addClause, a budget-starved Unknown left mid-search, and
// mark-stamp wraparounds.
func TestOneshotReuseMatchesFresh(t *testing.T) {
	opts := Options{DisableCache: true, DisableSlicing: true}
	reused := New(opts)
	backend := reused.backend.(*oneshotBackend)
	// Spans attached after construction reach the backend, whose
	// solver.search count tells whether a query got past blasting.
	reg := obs.NewRegistry()
	reused.Attach(Instruments{Spans: obs.NewSpanProfiler(reg, nil)})
	searches := func() int64 {
		for _, a := range reg.SpanAggregates() {
			if a.Layer == obs.SpanSolverSearch {
				return a.Count
			}
		}
		return 0
	}

	type step struct {
		pc     []*sx.Expr
		budget int64  // > 0: starve both solvers to this budget
		gen    uint32 // > 0: preset the reused solver's mark stamp
		early  bool   // Unsat found while blasting, before search
	}
	p := sx.NewVar(oraclePool[1])
	a := sx.NewVar(oraclePool[0])
	var stream []step
	r := rand.New(rand.NewSource(77))
	for i, q := range genOracleQueries(t, 300, 5150) {
		switch i {
		case 40:
			// Blasting p asserts it as a unit; blasting ¬p then finds its
			// unit false, and addClause ends the query before search.
			stream = append(stream, step{pc: []*sx.Expr{p, sx.Not(p)}, early: true})
		case 80:
			// Starved: the multiplier needs more than one propagation.
			stream = append(stream, step{pc: []*sx.Expr{sx.Eq(sx.Mul(a, a), sx.Const(49, sx.W8))}, budget: 1})
		}
		st := step{pc: q.pc}
		if i%25 == 0 {
			st.gen = math.MaxUint32 - uint32(r.Intn(4))
		}
		stream = append(stream, st)
	}

	var early, starved, wraps int
	for i, st := range stream {
		fresh := New(opts)
		if st.budget > 0 {
			reused.Attach(Instruments{PropBudget: st.budget})
			fresh.Attach(Instruments{PropBudget: st.budget})
		}
		if st.gen > 0 {
			backend.sat.markGen = st.gen
		}
		before, searched := reused.Stats(), searches()
		gotRes, gotModel := reused.CheckQuery(Query{PC: st.pc})
		after := reused.Stats()
		wantRes, wantModel := fresh.CheckQuery(Query{PC: st.pc})
		want := fresh.Stats()
		if st.budget > 0 {
			reused.Attach(Instruments{PropBudget: -1})
		}

		if gotRes != wantRes || !sameModel(gotModel, wantModel) {
			t.Fatalf("query %d %v: reused solver says %v %v, fresh says %v %v",
				i, st.pc, gotRes, gotModel, wantRes, wantModel)
		}
		got := Stats{
			Propagations: after.Propagations - before.Propagations,
			Conflicts:    after.Conflicts - before.Conflicts,
			ClausesAdded: after.ClausesAdded - before.ClausesAdded,
		}
		if got.Propagations != want.Propagations || got.Conflicts != want.Conflicts || got.ClausesAdded != want.ClausesAdded {
			t.Fatalf("query %d %v: reused cost %d/%d/%d (props/conflicts/clauses), fresh %d/%d/%d",
				i, st.pc, got.Propagations, got.Conflicts, got.ClausesAdded,
				want.Propagations, want.Conflicts, want.ClausesAdded)
		}
		switch {
		case st.budget > 0 && gotRes == Unknown:
			starved++
		case st.early && gotRes == Unsat && searches() == searched:
			early++
		}
		// Each addClause starts a marking round, so a query that adds more
		// clauses than the stamp's headroom wraps it.
		if st.gen > 0 && uint64(st.gen)+uint64(want.ClausesAdded) > math.MaxUint32 {
			wraps++
		}
	}
	if early != 1 || starved != 1 || wraps == 0 {
		t.Fatalf("stream missed a case: %d early Unsat, %d starved Unknown, %d stamp wraps", early, starved, wraps)
	}
}

// TestMarkWrapForgetsOldStamps: when the mark stamp wraps, stamps written
// a full cycle earlier must not read as marks of the new round. Here a stale
// stamp on ¬x would make (x ∨ y) look like a tautology and drop it.
func TestMarkWrapForgetsOldStamps(t *testing.T) {
	s := newSatSolver()
	x := mkLit(s.newVar(), false)
	y := mkLit(s.newVar(), false)
	s.mark[x.not()] = 1
	s.markGen = math.MaxUint32
	if !s.addClause([]Lit{x, y}) || s.numClauses != 1 {
		t.Fatalf("after the wrap, addClause kept %d clauses, want 1", s.numClauses)
	}
}

// BenchmarkOneshotSolve times the oneshot backend over the recorded deep
// path-condition stream (see recordDeepPath): one Solver, cache off so every
// query is blasted and solved, slicing on as in the engine. It is the micro
// regression check for CNF construction; run it with -benchmem.
func BenchmarkOneshotSolve(b *testing.B) {
	qs := recordDeepPath(1000)
	s := New(Options{DisableCache: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			s.CheckQuery(Query{PC: q.pc, Base: q.base})
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}
