package serve

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"chef/internal/chef"
	"chef/internal/obs"
	"chef/internal/symtest"
)

// shardSpec is quickSpec/luaSpec with sharded exploration enabled.
func shardSpec(base JobSpec, shards int) JobSpec {
	base.Shards = shards
	return base
}

// TestShardedJobDeterministicAcrossShardCounts is the package-level leg of
// the sharding determinism property, covering both interpreters (the
// internal/chef suite cannot import internal/packages): for each guest
// language, the serialized test NDJSON and the summary of a sharded job
// are byte-identical for every shard count and every seed.
func TestShardedJobDeterministicAcrossShardCounts(t *testing.T) {
	for _, base := range []struct {
		name string
		spec func(int64) JobSpec
	}{
		{"minipy", quickSpec},
		{"minilua", luaSpec},
	} {
		t.Run(base.name, func(t *testing.T) {
			for _, seed := range []int64{42, 7, 1000} {
				serial, err := Execute(context.Background(), shardSpec(base.spec(seed), 1), ExecOptions{})
				if err != nil {
					t.Fatalf("seed %d serial: %v", seed, err)
				}
				if len(serial.Tests) == 0 {
					t.Fatalf("seed %d: serial sharded run produced no tests", seed)
				}
				want, err := symtest.MarshalTests(serial.Tests)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 4, 8} {
					got, err := Execute(context.Background(), shardSpec(base.spec(seed), shards), ExecOptions{})
					if err != nil {
						t.Fatalf("seed %d shards %d: %v", seed, shards, err)
					}
					gotTests, err := symtest.MarshalTests(got.Tests)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotTests, want) {
						t.Fatalf("seed %d: %d-shard tests diverged from serial:\n%s\nvs\n%s",
							seed, shards, gotTests, want)
					}
					if got.Summary != serial.Summary {
						t.Fatalf("seed %d: %d-shard summary diverged:\nserial %+v\nsharded %+v",
							seed, shards, serial.Summary, got.Summary)
					}
				}
			}
		})
	}
}

// TestServedShardedJobMatchesDirect: a sharded job submitted over HTTP is
// byte-identical to the same spec run directly through Execute — the
// sharded analogue of TestServedJobMatchesDirectRun.
func TestServedShardedJobMatchesDirect(t *testing.T) {
	spec := shardSpec(quickSpec(42), 4)
	direct, err := Execute(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	wantTests, err := symtest.MarshalTests(direct.Tests)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Workers: 4})
	id := s.submit(t, "", spec)
	st := s.poll(t, id)
	if st.State != StateSucceeded {
		t.Fatalf("job state = %s (error %q), want succeeded", st.State, st.Error)
	}
	if st.Summary == nil || *st.Summary != direct.Summary {
		t.Fatalf("served sharded summary diverged:\nserved: %+v\ndirect: %+v", st.Summary, direct.Summary)
	}
	resp, gotTests := s.do(t, "GET", "/v1/jobs/"+id+"/tests", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tests: status %d", resp.StatusCode)
	}
	if !bytes.Equal(gotTests, wantTests) {
		t.Fatalf("served sharded tests diverged from direct run:\nserved:\n%s\ndirect:\n%s", gotTests, wantTests)
	}
	// The job's shard metric families made it into the server totals.
	if got := s.srv.Registry().Counter(obs.MShardEpochs).Value(); got == 0 {
		t.Fatal("server totals carry no shard.epochs; the sharded path did not run")
	}
}

// TestShardedJobSlotAccounting: a sharded job charges one worker slot per
// shard (capped at the pool), blocking other work while it runs; slots
// drain back to zero at terminal state.
func TestShardedJobSlotAccounting(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	heavy := shardSpec(longSpec(1), 2)
	id := s.submit(t, "", heavy)
	s.waitState(t, id, StateRunning)

	if h := s.srv.Health(); h.SlotsInUse != 2 {
		t.Fatalf("slots in use = %d while a 2-shard job runs on a 2-worker pool, want 2", h.SlotsInUse)
	}
	// A second job cannot be admitted while the heavy job holds the pool.
	light := s.submit(t, "", quickSpec(2))
	time.Sleep(20 * time.Millisecond)
	if j, _ := s.srv.Job(light); true {
		s.srv.mu.Lock()
		st := j.State
		s.srv.mu.Unlock()
		if st != StateQueued {
			t.Fatalf("light job is %s while the pool is slot-saturated, want queued", st)
		}
	}
	s.do(t, "DELETE", "/v1/jobs/"+id, "", nil)
	if st := s.poll(t, light); st.State != StateSucceeded {
		t.Fatalf("light job after the heavy job released its slots: %s (error %q)", st.State, st.Error)
	}
	if got := s.srv.Registry().Gauge(obs.MServeSlotsInUse).Value(); got != 0 {
		t.Fatalf("slots in use = %d after all jobs terminal, want 0 (slot leak)", got)
	}
	assertAccounting(t, s.srv)
}

// TestShardedJobSlotWeightClampsToPool: a job requesting more shards than
// the pool has workers still runs (its weight is capped), it just cannot
// oversubscribe admission.
func TestShardedJobSlotWeightClampsToPool(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	id := s.submit(t, "", shardSpec(quickSpec(5), chef.ShardSubtrees))
	st := s.poll(t, id)
	if st.State != StateSucceeded {
		t.Fatalf("max-shard job on a 1-worker pool: %s (error %q)", st.State, st.Error)
	}
	if got := s.srv.Registry().Gauge(obs.MServeSlotsInUse).Value(); got != 0 {
		t.Fatalf("slots in use = %d after completion, want 0", got)
	}
}

// TestShardedJobRunsWithinItsSlots: a sharded job runs no more epoch
// workers than the slots it was charged. On a 1-worker pool a 16-shard job
// holds one slot, so a stall rule aimed at epoch worker 3 finds no such
// worker, and the job record still shows the submitted shard count.
func TestShardedJobRunsWithinItsSlots(t *testing.T) {
	plan := mustPlan(t, "worker.stall:session=3")
	s := newTestServer(t, Options{Workers: 1, Faults: plan})
	spec := shardSpec(quickSpec(1), chef.ShardSubtrees)
	spec.Budget = 100_000
	id := s.submit(t, "", spec)
	st := s.poll(t, id)
	if st.State != StateSucceeded {
		t.Fatalf("16-shard job on a 1-worker pool: %s (error %q)", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.Stalled != 0 {
		t.Fatalf("summary %+v: a stall hit epoch worker 3 of a job holding one slot", st.Summary)
	}
	j, _ := s.srv.Job(id)
	s.srv.mu.Lock()
	shards := j.Spec.Shards
	s.srv.mu.Unlock()
	if shards != chef.ShardSubtrees {
		t.Fatalf("job record shards = %d, want the submitted %d", shards, chef.ShardSubtrees)
	}
}

// TestShardsValidation: out-of-range shard counts are rejected as invalid.
func TestShardsValidation(t *testing.T) {
	for _, shards := range []int{-1, chef.ShardSubtrees + 1} {
		spec := shardSpec(quickSpec(1), shards)
		if err := spec.Validate(); err == nil {
			t.Fatalf("shards=%d validated", shards)
		}
	}
	spec := shardSpec(quickSpec(1), chef.ShardSubtrees)
	if err := spec.Validate(); err != nil {
		t.Fatalf("shards=%d rejected: %v", chef.ShardSubtrees, err)
	}
}
