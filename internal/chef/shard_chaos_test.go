package chef

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestShardedSolverUnknownInvariants: a fault plan forcing solver
// Unknowns against a sharded run must keep the degradation invariant
// Unknown == Requeued + Abandoned in every range cell individually and
// after the merge, and stay byte-identical across worker counts (cell
// injectors are scoped by cell name, so their decisions are a pure
// function of the plan, not of scheduling).
func TestShardedSolverUnknownInvariants(t *testing.T) {
	run := func(workers int) *ShardedSession {
		opts := Options{
			Strategy: StrategyCUPAPath,
			Seed:     42,
			Faults:   mustChaosPlan(t, "seed=7;solver.unknown:p=0.3"),
		}
		return runSharded(t, validateEmailProg(6), opts, workers, shardFixtureBudget)
	}
	serial := run(1)
	if serial.Stats().UnknownStates == 0 {
		t.Fatal("plan injected no Unknowns; the chaos test is vacuous")
	}
	for _, cell := range serial.CellStats() {
		if cell.UnknownStates != cell.RequeuedStates+cell.AbandonedStates {
			t.Fatalf("per-cell degradation invariant broken: %+v", cell)
		}
	}
	merged := serial.Stats()
	if merged.UnknownStates != merged.RequeuedStates+merged.AbandonedStates {
		t.Fatalf("merged degradation invariant broken: %+v", merged)
	}
	want := fingerprint(serial)
	for _, workers := range []int{2, 4} {
		if got := fingerprint(run(workers)); got != want {
			t.Fatalf("faulted sharded run diverged between 1 and %d workers:\n%s\nvs\n%s",
				workers, want, got)
		}
	}
}

// TestShardedWorkerStallRescue: stalling one shard worker must not lose
// any path — the stalled worker never joins the pool and the survivors
// pull every cell, so the output is byte-identical to the unfaulted run
// (semantics are worker-independent by construction).
func TestShardedWorkerStallRescue(t *testing.T) {
	clean := runSharded(t, validateEmailProg(6),
		Options{Strategy: StrategyCUPAPath, Seed: 42}, 4, shardFixtureBudget)

	stalled := runSharded(t, validateEmailProg(6), Options{
		Strategy: StrategyCUPAPath,
		Seed:     42,
		Faults:   mustChaosPlan(t, "seed=1;worker.stall:session=1"),
	}, 4, shardFixtureBudget)

	if stalled.StalledWorkers() != 1 {
		t.Fatalf("stalled workers = %d, want 1", stalled.StalledWorkers())
	}
	if stalled.Stalled() {
		t.Fatal("a partial stall must not degrade the run")
	}
	if got, want := fmtTests(stalled.Tests()), fmtTests(clean.Tests()); got != want {
		t.Fatalf("stall lost paths:\nclean: %s\nstalled: %s", want, got)
	}
	if stalled.Clock() != clean.Clock() || stalled.Stats() != clean.Stats() {
		t.Fatalf("stall changed exploration accounting:\nclean %+v\nstalled %+v",
			clean.Stats(), stalled.Stats())
	}
	// The stall is visible in the summary's fault accounting.
	sum := stalled.Summary()
	if sum.Stalled != 1 || sum.FaultsInjected == 0 {
		t.Fatalf("summary %+v must report the stalled worker and the injected fault", sum)
	}
}

// TestShardedAllWorkersStalled: when every worker stalls the run degrades
// the way a plain stalled session does — terminates cleanly with zero
// tests and reports Stalled.
func TestShardedAllWorkersStalled(t *testing.T) {
	ss := runSharded(t, validateEmailProg(6), Options{
		Strategy: StrategyCUPAPath,
		Seed:     42,
		Faults:   mustChaosPlan(t, "seed=1;worker.stall"),
	}, 4, shardFixtureBudget)
	if !ss.Stalled() || ss.StalledWorkers() != 4 {
		t.Fatalf("stalled=%v workers=%d, want full stall", ss.Stalled(), ss.StalledWorkers())
	}
	if len(ss.Tests()) != 0 || ss.Clock() != 0 {
		t.Fatalf("fully stalled run must not explore: tests=%d clock=%d", len(ss.Tests()), ss.Clock())
	}
	if sum := ss.Summary(); sum.Stalled != 4 {
		t.Fatalf("summary %+v must count 4 stalled workers", sum)
	}
}

// TestShardedChaosPlansKeepInvariants mirrors the plain-session chaos
// property suite at the sharded level: random plans must never panic,
// must terminate, and must keep the merged accounting invariants.
func TestShardedChaosPlansKeepInvariants(t *testing.T) {
	plans := 60
	if testing.Short() {
		plans = 15
	}
	r := rand.New(rand.NewSource(20260807))
	for i := 0; i < plans; i++ {
		spec := randomPlanSpec(r)
		ss := runSharded(t, validateEmailProg(4+i%3), Options{
			Strategy: chaosStrategies[i%len(chaosStrategies)],
			Seed:     int64(i),
			Faults:   mustChaosPlan(t, spec),
		}, 1+i%4, 200_000)
		st := ss.Stats()
		if st.UnknownStates != st.RequeuedStates+st.AbandonedStates {
			t.Fatalf("plan %q: merged degradation invariant broken: %+v", spec, st)
		}
		for k, cell := range ss.CellStats() {
			if cell.UnknownStates != cell.RequeuedStates+cell.AbandonedStates {
				t.Fatalf("plan %q: cell %d degradation invariant broken: %+v", spec, k, cell)
			}
		}
		if ss.Stalled() && len(ss.Tests()) != 0 {
			t.Fatalf("plan %q: stalled run produced tests", spec)
		}
	}
}

func fmtTests(tests []TestCase) string {
	out := ""
	for _, tc := range tests {
		out += fmt.Sprintf("%#v\n", tc)
	}
	return out
}
