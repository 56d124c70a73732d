package lowlevel

import (
	"testing"

	"chef/internal/faults"
	"chef/internal/solver"
	"chef/internal/symexpr"
)

// threeBranchProg returns a program with three independent symbolic branches
// (8 paths) that records every executed path.
func threeBranchProg(paths map[[3]bool]int) Program {
	return func(m *Machine) {
		var key [3]bool
		for i := 0; i < 3; i++ {
			b := m.InputByte("in", i, 0)
			key[i] = m.Branch(LLPC(10+i), UltV(ConcreteVal(100, symexpr.W8), b))
		}
		paths[key]++
	}
}

func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Regression for the silent-path-loss bug: a transient Unknown verdict used
// to drop the state while its signature stayed in visited, losing the path
// forever. With re-queueing, the retry solves (the injected fault fires once
// and Unknowns are never cached) and coverage stays complete.
func TestUnknownStateRequeuedAndRecovered(t *testing.T) {
	paths := map[[3]bool]int{}
	plan := mustPlan(t, "seed=1;solver.unknown:n=1")
	e := NewEngine(threeBranchProg(paths), NewBFSStrategy(), Options{
		SolverOptions: solver.Options{Faults: plan.Injector("eng")},
	})
	exploreAll(e, 100)
	if len(paths) != 8 {
		t.Fatalf("distinct paths = %d, want 8 (Unknown state lost)", len(paths))
	}
	st := e.Stats()
	if st.UnknownStates != 1 || st.RequeuedStates != 1 || st.AbandonedStates != 0 {
		t.Fatalf("stats = %+v, want 1 Unknown re-queued, none abandoned", st)
	}
}

// When the retry budget is exhausted the state is abandoned, but its visited
// signature must be released so a later fork at the same site re-registers
// the path. With three independent branches, the run that flips decision 1
// re-forks the abandoned flip of decision 0, so full coverage is recovered
// even with re-queueing disabled.
func TestAbandonedStateReleasesVisitedSig(t *testing.T) {
	paths := map[[3]bool]int{}
	plan := mustPlan(t, "seed=1;solver.unknown:n=1")
	e := NewEngine(threeBranchProg(paths), NewBFSStrategy(), Options{
		UnknownRetries: -1, // abandon on the first Unknown
		SolverOptions:  solver.Options{Faults: plan.Injector("eng")},
	})
	exploreAll(e, 100)
	st := e.Stats()
	if st.AbandonedStates != 1 || st.RequeuedStates != 0 || st.UnknownStates != 1 {
		t.Fatalf("stats = %+v, want exactly 1 abandoned state", st)
	}
	if len(paths) != 8 {
		t.Fatalf("distinct paths = %d, want 8 (abandoned sig not re-registered)", len(paths))
	}
}

// The paper's scenario: the solver budget is exhausted mid-session (every
// query returns a real Unknown), then recovers. Re-queued states must retry
// and reach full coverage once the budget is back — the regression the issue
// names verbatim.
func TestBudgetStarvedRunRecoversAfterBudgetRestore(t *testing.T) {
	paths := map[[3]bool]int{}
	e := NewEngine(threeBranchProg(paths), NewBFSStrategy(), Options{
		SolverOptions: solver.Options{PropBudget: 1},
	})
	e.RunInitial()
	if _, more := e.SelectAndRun(); !more {
		t.Fatal("no pending states after the initial run")
	}
	st := e.Stats()
	if st.UnknownStates != 1 || st.RequeuedStates != 1 {
		t.Fatalf("stats = %+v, want the starved query Unknown and re-queued", st)
	}
	e.Solver().Attach(solver.Instruments{PropBudget: -1}) // budget recovers
	exploreAll(e, 100)
	if len(paths) != 8 {
		t.Fatalf("distinct paths = %d, want 8 after budget recovery", len(paths))
	}
	st = e.Stats()
	if st.AbandonedStates != 0 {
		t.Fatalf("stats = %+v, want no abandoned states", st)
	}
}

// Under sustained starvation the queue must drain (retries are bounded), the
// engine must not panic, and the accounting invariant
// UnknownStates == RequeuedStates + AbandonedStates must hold.
func TestSustainedStarvationTerminates(t *testing.T) {
	paths := map[[3]bool]int{}
	plan := mustPlan(t, "seed=3;solver.unknown:p=1")
	e := NewEngine(threeBranchProg(paths), NewBFSStrategy(), Options{
		SolverOptions: solver.Options{Faults: plan.Injector("eng")},
	})
	exploreAll(e, 10_000)
	if e.Pending() != 0 {
		t.Fatalf("queue did not drain: %d pending", e.Pending())
	}
	st := e.Stats()
	if st.UnknownStates != st.RequeuedStates+st.AbandonedStates {
		t.Fatalf("accounting broken: %+v", st)
	}
	if st.AbandonedStates == 0 {
		t.Fatal("p=1 starvation abandoned nothing")
	}
	if len(paths) != 1 {
		t.Fatalf("distinct paths = %d, want 1 (only the initial run executes)", len(paths))
	}
}
