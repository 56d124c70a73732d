package solver

import (
	"path/filepath"
	"testing"

	"chef/internal/faults"
	sx "chef/internal/symexpr"
)

func mustFaultPlan(t testing.TB, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Differential oracle under injected Unknowns: with solver.unknown:p=0.3
// active, a verdict may weaken to Unknown but must never flip between Sat
// and Unsat, and every Sat model must still satisfy the query. Because
// forced Unknowns are never cached, retrying resolves each query to the
// exact oracle verdict eventually.
func TestSolverMatchesOracleUnderInjectedUnknowns(t *testing.T) {
	n := 250
	if !testing.Short() {
		n = 800
	}
	queries := genOracleQueries(t, n, 31337)

	plan := mustFaultPlan(t, "seed=11;solver.unknown:p=0.3")
	s := New(Options{Faults: plan.Injector("oracle/exact")})
	unknowns := 0
	for i, q := range queries {
		res, model := s.CheckQuery(Query{PC: q.pc, Base: q.base})
		if res == Unknown {
			unknowns++
			continue
		}
		if res != q.want {
			t.Fatalf("query %d: verdict flipped under injection: solver=%v oracle=%v pc=%v",
				i, res, q.want, q.pc)
		}
		if res == Sat {
			for _, c := range q.pc {
				if !sx.EvalBool(c, model) {
					t.Fatalf("query %d: model %v violates %v under injection", i, model, c)
				}
			}
		}
	}
	if unknowns == 0 {
		t.Fatalf("p=0.3 injected no Unknowns over %d queries", n)
	}
	t.Logf("%d/%d verdicts weakened to Unknown", unknowns, len(queries))

	// Retry loop: queries solved above hit the cache (injection only
	// intercepts real solves), and forced Unknowns re-solve because they
	// were never cached, so every query converges to the oracle verdict.
	for i, q := range queries {
		res, model := s.CheckQuery(Query{PC: q.pc, Base: q.base})
		for try := 0; res == Unknown && try < 200; try++ {
			res, model = s.CheckQuery(Query{PC: q.pc, Base: q.base})
		}
		if res != q.want {
			t.Fatalf("query %d: did not converge to oracle verdict: got %v, want %v",
				i, res, q.want)
		}
		if res == Sat {
			for _, c := range q.pc {
				if !sx.EvalBool(c, model) {
					t.Fatalf("query %d: converged model %v violates %v", i, model, c)
				}
			}
		}
	}
}

// Forced Unknowns must never reach the persistent store: a cold faulted pass
// persists only genuinely solved queries, and a warm pass under the same
// fault plan answers those from disk (persistent hits bypass the injector
// entirely — a budget miss can only happen on a real solve).
func TestSolverOraclePersistentUnderInjectedUnknowns(t *testing.T) {
	queries := genOracleQueries(t, 300, 7771)
	path := filepath.Join(t.TempDir(), "cxc.bin")
	plan := mustFaultPlan(t, "seed=13;solver.unknown:p=0.4")

	cold := mustOpen(t, path)
	s := New(Options{Persist: cold, Faults: plan.Injector("cold")})
	solved := 0
	for i, q := range queries {
		res, model := s.CheckQuery(Query{PC: q.pc, Base: q.base})
		if res == Unknown {
			continue
		}
		solved++
		if res != q.want {
			t.Fatalf("cold query %d: verdict flipped: solver=%v oracle=%v", i, res, q.want)
		}
		if res == Sat {
			for _, c := range q.pc {
				if !sx.EvalBool(c, model) {
					t.Fatalf("cold query %d: model %v violates %v", i, model, c)
				}
			}
		}
	}
	if solved == 0 {
		t.Fatal("cold faulted pass solved nothing")
	}
	if err := cold.Close(); err != nil {
		t.Fatalf("cold close: %v", err)
	}

	warm := mustOpen(t, path)
	defer warm.Close()
	if warm.Corruption() != nil {
		t.Fatalf("faulted pass corrupted the cache file: %v", warm.Corruption())
	}
	s2 := New(Options{Persist: warm, Faults: plan.Injector("warm")})
	for i, q := range queries {
		res, model := s2.CheckQuery(Query{PC: q.pc, Base: q.base})
		if res != Unknown && res != q.want {
			t.Fatalf("warm query %d: verdict flipped: solver=%v oracle=%v", i, res, q.want)
		}
		if res == Sat {
			for _, c := range q.pc {
				if !sx.EvalBool(c, model) {
					t.Fatalf("warm query %d: model %v violates %v", i, model, c)
				}
			}
		}
	}
	if s2.Stats().CacheHitsPersist == 0 {
		t.Fatal("warm faulted pass recorded no persistent hits")
	}
}
