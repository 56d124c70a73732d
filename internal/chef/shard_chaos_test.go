package chef

import (
	"math/rand"
	"testing"

	"chef/internal/lowlevel"
)

// CellStats returns each range cell's engine counters in range order (the
// per-shard view of the degradation invariants).
func (ss *ShardedSession) CellStats() []lowlevel.Stats {
	out := make([]lowlevel.Stats, len(ss.cells))
	for i, c := range ss.cells {
		out[i] = c.sess.eng.Stats()
	}
	return out
}

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
	}
}
