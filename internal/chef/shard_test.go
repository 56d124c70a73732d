package chef

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"chef/internal/obs"
)

// shardFixtureBudget is enough for validateEmailProg to drain completely.
const shardFixtureBudget = 1 << 22

func runSharded(t testing.TB, prog TestProgram, opts Options, workers int, budget int64) *ShardedSession {
	t.Helper()
	ss := NewShardedSession(prog, opts, workers)
	ss.Run(budget)
	return ss
}

// fingerprint renders everything semantically observable about a sharded
// run into one comparable string.
func fingerprint(ss *ShardedSession) string {
	return fmt.Sprintf("tests=%#v\nstats=%+v\nclock=%d\nsolver=%+v\nseries=%+v\nsummary=%+v",
		ss.Tests(), ss.Stats(), ss.Clock(), ss.SolverStats(), ss.Series(), ss.Summary())
}

// TestShardOwnerOf pins the range encoding: a signature belongs to the
// cell named by its top ShardSubtreeBits bits, and every signature maps to
// exactly one cell in [0, ShardSubtrees).
func TestShardOwnerOf(t *testing.T) {
	for _, tc := range []struct {
		sig  uint64
		want int
	}{
		{0, 0},
		{1<<60 - 1, 0},
		{1 << 60, 1},
		{1<<63 | 1<<61, 10},
		{^uint64(0), 15},
	} {
		if got := shardOwnerOf(tc.sig); got != tc.want {
			t.Errorf("shardOwnerOf(%#x) = %d, want %d", tc.sig, got, tc.want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		sig := r.Uint64()
		k := shardOwnerOf(sig)
		if k < 0 || k >= ShardSubtrees {
			t.Fatalf("shardOwnerOf(%#x) = %d, outside [0, %d)", sig, k, ShardSubtrees)
		}
		lo := uint64(k) << (64 - ShardSubtreeBits)
		if sig < lo || sig-lo >= 1<<(64-ShardSubtreeBits) {
			t.Fatalf("sig %#x outside its cell %d", sig, k)
		}
	}
}

// TestShardedDeterministicAcrossWorkers is the core sharding property:
// the worker count is scheduling, not semantics, so every observable
// output must be identical for 1, 2, 4 and 8 workers across seeds.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{42, 7, 1000} {
		opts := Options{Strategy: StrategyCUPAPath, Seed: seed}
		serial := fingerprint(runSharded(t, validateEmailProg(6), opts, 1, shardFixtureBudget))
		for _, workers := range []int{2, 4, 8} {
			got := fingerprint(runSharded(t, validateEmailProg(6), opts, workers, shardFixtureBudget))
			if got != serial {
				t.Fatalf("seed %d: %d-worker run diverged from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
					seed, workers, serial, workers, got)
			}
		}
	}
}

// TestShardedFindsAllOutcomes checks the sharded exploration is still a
// complete exploration: the fixture has exactly two high-level paths and
// both outcomes must be found, with cross-range handoffs exercised.
func TestShardedFindsAllOutcomes(t *testing.T) {
	ss := runSharded(t, validateEmailProg(6), Options{Strategy: StrategyCUPAPath, Seed: 42}, 4, shardFixtureBudget)
	results := map[string]bool{}
	for _, tc := range ss.Tests() {
		results[tc.Result] = true
	}
	if !results["ok"] || !results["exception:InvalidEmailError"] {
		t.Fatalf("outcomes %v, want both ok and exception", results)
	}
	if len(ss.Tests()) != 2 {
		t.Fatalf("merged tests = %d, want 2 distinct HL paths", len(ss.Tests()))
	}
	st := ss.Stats()
	if st.HandedOff == 0 {
		t.Fatal("no cross-range handoffs: the range partition was not exercised")
	}
	if st.UnknownStates != st.RequeuedStates+st.AbandonedStates {
		t.Fatalf("degradation invariant broken: %+v", st)
	}
}

// normalizeShardSnapshot drops the wall-clock metric families from a
// registry snapshot (span wall counters, solver wall histograms), which
// are observational by contract. Everything left must be byte-identical
// across worker counts.
func normalizeShardSnapshot(s obs.Snapshot) obs.Snapshot {
	for name := range s.Counters {
		if strings.Contains(name, "wall_ns") {
			delete(s.Counters, name)
		}
	}
	for name := range s.Histograms {
		if strings.Contains(name, "wall_ns") {
			delete(s.Histograms, name)
		}
	}
	return s
}

// TestShardedMatchesMetricsAcrossWorkers: merged registries must agree
// across worker counts after the normalization above — the -metrics-json
// leg of the determinism property.
func TestShardedMatchesMetricsAcrossWorkers(t *testing.T) {
	run := func(workers int) obs.Snapshot {
		reg := obs.NewRegistry()
		opts := Options{Strategy: StrategyCUPAPath, Seed: 42, Metrics: reg}
		runSharded(t, validateEmailProg(6), opts, workers, shardFixtureBudget)
		return normalizeShardSnapshot(reg.Snapshot())
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("metrics diverged between 1 and %d workers:\nserial: %+v\ngot: %+v",
				workers, serial, got)
		}
	}
}

// TestShardedTraceDeterministicAfterCanonicalReorder: trace events are
// emitted concurrently by epoch workers, so their interleaving is
// schedule-dependent — but a stable reorder by session label (the
// canonical range order) must be byte-identical across worker counts.
func TestShardedTraceDeterministicAfterCanonicalReorder(t *testing.T) {
	run := func(workers int) []obs.Event {
		var collect obs.Collect
		opts := Options{Strategy: StrategyCUPAPath, Seed: 42, Tracer: &collect, Name: "det"}
		runSharded(t, validateEmailProg(6), opts, workers, shardFixtureBudget)
		evs := collect.Events()
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Session < evs[j].Session })
		for i := range evs {
			// Wall-clock stamps are observational by contract (the JSONL
			// tracer's DisableWallClock exists for the same reason).
			evs[i].WallNs, evs[i].WallCost, evs[i].SelfWall = 0, 0, 0
		}
		return evs
	}
	serial := run(1)
	for _, workers := range []int{4} {
		got := run(workers)
		if !reflect.DeepEqual(serial, got) {
			if len(serial) != len(got) {
				t.Fatalf("event counts differ: serial=%d workers=%d", len(serial), len(got))
			}
			for i := range serial {
				if !reflect.DeepEqual(serial[i], got[i]) {
					t.Fatalf("event %d differs:\nserial: %+v\nworkers=%d: %+v", i, serial[i], workers, got[i])
				}
			}
		}
	}
}

// TestShardedCancellation: a cancelled context stops the run promptly and
// marks it cancelled; tests produced before the cancellation stay valid.
func TestShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ss := NewShardedSession(validateEmailProg(6), Options{Strategy: StrategyCUPAPath, Seed: 42}, 4)
	tests := ss.RunContext(ctx, shardFixtureBudget)
	if !ss.Cancelled() {
		t.Fatal("run with a done context must report cancelled")
	}
	if len(tests) != 0 {
		t.Fatalf("pre-cancelled run produced %d tests", len(tests))
	}
}

// TestShardedWorkerClamp: worker counts are clamped to [1, ShardSubtrees]
// and never change results (spot check at the extremes).
func TestShardedWorkerClamp(t *testing.T) {
	ss := NewShardedSession(validateEmailProg(4), Options{Seed: 1}, 1000)
	if ss.Workers() != ShardSubtrees {
		t.Fatalf("workers = %d, want clamp to %d", ss.Workers(), ShardSubtrees)
	}
	opts := Options{Strategy: StrategyCUPAPath, Seed: 9}
	a := fingerprint(runSharded(t, validateEmailProg(4), opts, 1, shardFixtureBudget))
	b := fingerprint(runSharded(t, validateEmailProg(4), opts, 1000, shardFixtureBudget))
	if a != b {
		t.Fatal("clamped worker count changed results")
	}
}
