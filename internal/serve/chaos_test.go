package serve

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/solver"
)

func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("faults plan %q: %v", spec, err)
	}
	return plan
}

// A chaos plan active across a batch of jobs: the queue drains and every
// submitted job reaches exactly one terminal state (the job-level mirror of
// the engine's Unknown == Requeued + Abandoned invariant). Forced solver
// Unknowns degrade no job: each one still succeeds.
func TestChaosBatchNoJobSilentlyLost(t *testing.T) {
	plan := mustPlan(t, "seed=3;solver.unknown:p=0.2")
	s := newTestServer(t, Options{Workers: 2, Faults: plan})

	const n = 5
	ids := make([]string, n)
	for i := range ids {
		ids[i] = s.submit(t, "", quickSpec(int64(i+1)))
	}
	for _, id := range ids {
		if st := s.poll(t, id); st.State != StateSucceeded {
			t.Fatalf("job %s under chaos: %s (error %q)", id, st.State, st.Error)
		}
	}
	if got := s.srv.Registry().Counter(obs.MFaultsSolverUnknown).Value(); got == 0 {
		t.Fatal("plan injected no solver Unknowns; the test is vacuous")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	submitted, terminal, queued, running := s.srv.Accounting()
	if queued != 0 || running != 0 {
		t.Fatalf("queue not drained: queued %d, running %d", queued, running)
	}
	if submitted != terminal || submitted != n {
		t.Fatalf("job ledger: submitted %d, terminal %d, want both %d", submitted, terminal, n)
	}
}

// persist.write faults: the store's give-up path (entries lost after the
// retry budget) surfaces in /metrics, published on scrape.
func TestPersistGiveUpSurfacesInMetrics(t *testing.T) {
	store, err := solver.OpenPersistentStore(filepath.Join(t.TempDir(), "cxc.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// Every write fails: the flush retries, then gives up and drops the
	// pending entries — the loss path this test wants visible.
	plan := mustPlan(t, "seed=1;persist.write:err")
	reg := obs.NewRegistry()
	inj := plan.Injector("persist")
	inj.Instrument(reg)
	store.SetFaults(inj)

	s := newTestServer(t, Options{Workers: 1, Persist: store, Metrics: reg})
	id := s.submit(t, "", quickSpec(1))
	if st := s.poll(t, id); st.State != StateSucceeded {
		t.Fatalf("job state = %s", st.State)
	}
	// The job itself is unaffected (appends are asynchronous); the damage
	// is visible on the store and, after a /metrics scrape, in the registry.
	deadline := time.Now().Add(20 * time.Second)
	for store.Lost() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Lost() == 0 {
		t.Fatal("store never gave up despite permanent write faults")
	}
	resp, body := s.do(t, "GET", "/metrics", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, obs.MSolverPersistLost) {
		t.Fatalf("/metrics missing %s:\n%s", obs.MSolverPersistLost, text)
	}
	if reg.Counter(obs.MSolverPersistLost).Value() == 0 {
		t.Fatal("mirrored solver.persist.lost = 0 after give-up")
	}
	if reg.Counter(obs.MSolverPersistWriteErrors).Value() == 0 {
		t.Fatal("mirrored solver.persist.write_errors = 0 after write faults")
	}
	if reg.Counter(obs.MFaultsPersistWrite).Value() == 0 {
		t.Fatal("faults.injected.persist_write = 0 with an always-on plan")
	}
}
