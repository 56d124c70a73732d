package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chef/internal/chef"
	"chef/internal/obs"
	"chef/internal/solver"
	"chef/internal/symtest"
)

// quickSpec is a fast MiniPy job used throughout the suite.
func quickSpec(seed int64) JobSpec {
	return JobSpec{Package: "simplejson", Strategy: "cupa-path", Budget: 200_000, StepLimit: 30_000, Seed: seed}
}

// luaSpec is a fast MiniLua job.
func luaSpec(seed int64) JobSpec {
	return JobSpec{Package: "JSON", Strategy: "cupa-path", Budget: 200_000, StepLimit: 30_000, Seed: seed}
}

// longSpec is a job big enough to still be running while the test pokes at
// the server (it is always cancelled, never awaited).
func longSpec(seed int64) JobSpec {
	return JobSpec{Package: "simplejson", Strategy: "cupa-path", Budget: 1 << 40, StepLimit: 30_000, Seed: seed}
}

type testServer struct {
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		ts.Close()
	})
	return &testServer{srv: srv, ts: ts}
}

func (s *testServer) do(t *testing.T, method, path, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if tenant != "" {
		req.Header.Set("X-API-Key", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// submit POSTs a spec and returns the accepted job id.
func (s *testServer) submit(t *testing.T, tenant string, spec JobSpec) string {
	t.Helper()
	resp, data := s.do(t, "POST", "/v1/jobs", tenant, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return st.ID
}

// poll GETs the job until it reaches a terminal state.
func (s *testServer) poll(t *testing.T, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := s.do(t, "GET", "/v1/jobs/"+id, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, resp.StatusCode, data)
		}
		var st jobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not terminate", id)
	return jobStatus{}
}

// waitState polls until the job reports the given state.
func (s *testServer) waitState(t *testing.T, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.srv.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		s.srv.mu.Lock()
		st := j.State
		s.srv.mu.Unlock()
		if st == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// The tentpole acceptance check, HTTP half: a job submitted over HTTP with a
// fixed seed produces stats and test cases byte-identical to the same spec
// run directly through Execute — which is the chef CLI's code path.
func TestServedJobMatchesDirectRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"minipy", quickSpec(42)},
		{"minilua", luaSpec(42)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := Execute(context.Background(), tc.spec, ExecOptions{})
			if err != nil {
				t.Fatalf("direct run: %v", err)
			}
			if len(direct.Tests) == 0 {
				t.Fatal("direct run produced no tests; the comparison would be vacuous")
			}
			wantTests, err := symtest.MarshalTests(direct.Tests)
			if err != nil {
				t.Fatal(err)
			}

			s := newTestServer(t, Options{Workers: 2})
			id := s.submit(t, "", tc.spec)
			st := s.poll(t, id)
			if st.State != StateSucceeded {
				t.Fatalf("job state = %s (error %q), want succeeded", st.State, st.Error)
			}
			if st.Summary == nil || *st.Summary != direct.Summary {
				t.Fatalf("served summary diverged:\nserved: %+v\ndirect: %+v", st.Summary, direct.Summary)
			}
			resp, gotTests := s.do(t, "GET", "/v1/jobs/"+id+"/tests", "", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tests: status %d", resp.StatusCode)
			}
			if !bytes.Equal(gotTests, wantTests) {
				t.Fatalf("served tests diverged from direct run:\nserved:\n%s\ndirect:\n%s", gotTests, wantTests)
			}
		})
	}
}

// The tentpole acceptance check, warmth half: a second identical job on the
// same server observes persistent-store warm hits — and, because each job
// runs against a view snapshot whose hits replay their recorded cost, its
// stats and tests are still byte-identical to the cold job's.
func TestSecondJobObservesPersistWarmHits(t *testing.T) {
	store, err := solver.OpenPersistentStore(filepath.Join(t.TempDir(), "cxc.bin"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 1, Persist: store})
	t.Cleanup(func() { _ = store.Close() })

	spec := quickSpec(7)
	id1 := s.submit(t, "", spec)
	st1 := s.poll(t, id1)
	if st1.State != StateSucceeded {
		t.Fatalf("cold job state = %s (error %q)", st1.State, st1.Error)
	}
	_, tests1 := s.do(t, "GET", "/v1/jobs/"+id1+"/tests", "", nil)

	id2 := s.submit(t, "", spec)
	st2 := s.poll(t, id2)
	if st2.State != StateSucceeded {
		t.Fatalf("warm job state = %s (error %q)", st2.State, st2.Error)
	}
	_, tests2 := s.do(t, "GET", "/v1/jobs/"+id2+"/tests", "", nil)

	if st1.Metrics.Counters[obs.MSolverCacheHitsPersist] != 0 {
		t.Fatalf("cold job reported %d persist hits, want 0", st1.Metrics.Counters[obs.MSolverCacheHitsPersist])
	}
	warmHits := st2.Metrics.Counters[obs.MSolverCacheHitsPersist]
	if warmHits == 0 {
		t.Fatal("warm job observed no persistent-cache hits")
	}
	if *st1.Summary != *st2.Summary {
		t.Fatalf("warm job summary diverged from cold:\ncold: %+v\nwarm: %+v", st1.Summary, st2.Summary)
	}
	if !bytes.Equal(tests1, tests2) {
		t.Fatal("warm job tests diverged from cold job")
	}
	// The merged server totals carry the per-job hits.
	if got := s.srv.Registry().Counter(obs.MSolverCacheHitsPersist).Value(); got != warmHits {
		t.Fatalf("server-total persist hits = %d, want %d", got, warmHits)
	}
}

// A served job that writes a fresh persistent store is byte-identical to a
// direct run with no store: appending solved queries never changes what the
// job itself reports.
func TestServedJobOnFreshStoreMatchesCold(t *testing.T) {
	spec := quickSpec(42)
	cold, err := Execute(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	coldTests, err := symtest.MarshalTests(cold.Tests)
	if err != nil {
		t.Fatal(err)
	}

	store, err := solver.OpenPersistentStore(filepath.Join(t.TempDir(), "cxc.bin"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 1, Persist: store})
	t.Cleanup(func() { _ = store.Close() })
	id := s.submit(t, "", spec)
	st := s.poll(t, id)
	if st.State != StateSucceeded {
		t.Fatalf("job state = %s (error %q)", st.State, st.Error)
	}
	_, servedTests := s.do(t, "GET", "/v1/jobs/"+id+"/tests", "", nil)
	if !bytes.Equal(servedTests, coldTests) {
		t.Fatalf("served job on a fresh store diverged from cold: %d vs %d bytes",
			len(servedTests), len(coldTests))
	}
	if *st.Summary != cold.Summary {
		t.Fatalf("served job summary diverged from cold:\ncold:   %+v\nserved: %+v", cold.Summary, *st.Summary)
	}
}

// N concurrent jobs against one store under -race: every job succeeds,
// later jobs can observe warm hits, and the store file stays loadable
// afterwards.
func TestConcurrentJobsSharedWarmState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	store, err := solver.OpenPersistentStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// A warm-up job on a first server populates the store; the jobs on the
	// second server each take a view of it at start.
	warmSrv := newTestServer(t, Options{Workers: 1, Persist: store})
	warm := warmSrv.submit(t, "", quickSpec(3))
	if st := warmSrv.poll(t, warm); st.State != StateSucceeded {
		t.Fatalf("warm-up job: %s", st.State)
	}
	ctxW, cancelW := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelW()
	if err := warmSrv.srv.Drain(ctxW); err != nil {
		t.Fatalf("drain warm-up server: %v", err)
	}

	s := newTestServer(t, Options{Workers: 4, Persist: store})
	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = s.submit(t, fmt.Sprintf("tenant-%d", i%3), quickSpec(3))
	}
	var persistHits int64
	for _, id := range ids {
		st := s.poll(t, id)
		if st.State != StateSucceeded {
			t.Fatalf("job %s: state %s (error %q)", id, st.State, st.Error)
		}
		persistHits += st.Metrics.Counters[obs.MSolverCacheHitsPersist]
	}
	if persistHits == 0 {
		t.Fatal("no concurrent job observed persistent-cache hits")
	}
	// Quiesce the pool, flush, and reload the store file.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r, err := solver.OpenPersistentStore(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	defer r.Close()
	if r.Corruption() != nil {
		t.Fatalf("store corrupt after concurrent jobs: %v", r.Corruption())
	}
	if r.Loaded() == 0 {
		t.Fatal("store empty after concurrent jobs")
	}
}

// A full queue answers 429 with a Retry-After hint; the rejection is counted
// but never enters the submitted ledger.
func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueCap: 1, RetryAfterSeconds: 7})
	running := s.submit(t, "", longSpec(1))
	s.waitState(t, running, StateRunning)
	queued := s.submit(t, "", longSpec(2))

	resp, data := s.do(t, "POST", "/v1/jobs", "", longSpec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
	if got := s.srv.Registry().Counter(obs.MServeJobsRejected).Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if got := s.srv.Registry().Counter(obs.MServeJobsSubmitted).Value(); got != 2 {
		t.Fatalf("submitted counter = %d, want 2", got)
	}
	for _, id := range []string{running, queued} {
		s.do(t, "DELETE", "/v1/jobs/"+id, "", nil)
	}
}

// A tenant at its concurrency limit queues behind itself while other
// tenants' jobs overtake.
func TestTenantConcurrencyLimit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, TenantLimit: 1})
	a1 := s.submit(t, "alice", longSpec(1))
	s.waitState(t, a1, StateRunning)
	a2 := s.submit(t, "alice", longSpec(2)) // over alice's limit: must wait
	b1 := s.submit(t, "bob", longSpec(3))   // free worker goes to bob
	s.waitState(t, b1, StateRunning)

	if j, _ := s.srv.Job(a2); true {
		s.srv.mu.Lock()
		st := j.State
		s.srv.mu.Unlock()
		if st != StateQueued {
			t.Fatalf("alice's second job is %s, want queued while over the tenant limit", st)
		}
	}
	// Cancelling alice's running job frees her slot; the queued job starts.
	s.do(t, "DELETE", "/v1/jobs/"+a1, "", nil)
	s.waitState(t, a2, StateRunning)
	for _, id := range []string{a2, b1} {
		s.do(t, "DELETE", "/v1/jobs/"+id, "", nil)
	}
}

// DELETE on a running job stops it promptly and releases the worker slot
// (regression for the cancellation plumbing: a slot leak would wedge the
// follow-up job forever on a 1-worker pool).
func TestCancelReleasesWorkerSlot(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	long := s.submit(t, "", longSpec(1))
	s.waitState(t, long, StateRunning)
	resp, _ := s.do(t, "DELETE", "/v1/jobs/"+long, "", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	st := s.poll(t, long)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", st.State)
	}

	next := s.submit(t, "", quickSpec(2))
	if st := s.poll(t, next); st.State != StateSucceeded {
		t.Fatalf("follow-up job on the freed slot: %s (error %q)", st.State, st.Error)
	}
}

// Cancelling a queued job turns it terminal without ever running.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	running := s.submit(t, "", longSpec(1))
	s.waitState(t, running, StateRunning)
	queued := s.submit(t, "", quickSpec(2))
	s.do(t, "DELETE", "/v1/jobs/"+queued, "", nil)
	if st := s.poll(t, queued); st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s", st.State)
	}
	s.do(t, "DELETE", "/v1/jobs/"+running, "", nil)
}

// Drain finishes in-flight jobs, rejects new submissions with 503, and
// flips /healthz to 503.
func TestDrainFinishesInFlight(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	id := s.submit(t, "", quickSpec(1))

	drained := make(chan error, 1)
	go func() { drained <- s.srv.Drain(context.Background()) }()
	// Submissions are rejected as soon as draining flips on.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := s.do(t, "POST", "/v1/jobs", "", quickSpec(9))
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The drain rejection must carry the same backoff hint the 429
			// path sets; a client with no Retry-After has no idea when (or
			// whether) to come back.
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("503-while-draining response has no Retry-After header")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions still accepted after Drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.poll(t, id); st.State != StateSucceeded {
		t.Fatalf("in-flight job after drain: %s (error %q)", st.State, st.Error)
	}
	resp, _ := s.do(t, "GET", "/healthz", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d, want 503", resp.StatusCode)
	}
}

// A drain whose deadline expires cancels the remaining jobs instead of
// losing them: every submitted job still reaches a terminal state.
func TestDrainTimeoutCancelsJobs(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	running := s.submit(t, "", longSpec(1))
	s.waitState(t, running, StateRunning)
	queued := s.submit(t, "", longSpec(2))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.srv.Drain(ctx); err == nil {
		t.Fatal("drain with expired deadline reported nil error")
	}
	for _, id := range []string{running, queued} {
		if st := s.poll(t, id); st.State != StateCancelled {
			t.Fatalf("job %s after drain timeout: %s", id, st.State)
		}
	}
	assertAccounting(t, s.srv)
}

// assertAccounting checks the job ledger invariant: submitted ==
// terminal + queued + running.
func assertAccounting(t *testing.T, srv *Server) {
	t.Helper()
	submitted, terminal, queued, running := srv.Accounting()
	if submitted != terminal+queued+running {
		t.Fatalf("job ledger leak: submitted %d != terminal %d + queued %d + running %d",
			submitted, terminal, queued, running)
	}
}

// Invalid specs and bodies answer 400 and count as invalid, not submitted.
func TestInvalidSubmissions(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	for name, tc := range map[string]struct {
		spec    JobSpec
		wantErr string // when set, the exact Validate error
	}{
		"unknown package": {spec: JobSpec{Package: "no-such-package"}},
		"bad strategy":    {spec: JobSpec{Package: "simplejson", Strategy: "psychic"}},
		"no target":       {spec: JobSpec{}},
		"both targets":    {spec: JobSpec{Package: "simplejson", Language: "python", Source: "x"}},
		"bad input kind": {spec: JobSpec{Language: "python", Source: "def f(x):\n    return x\n", Entry: "f",
			Inputs: []InputSpec{{Name: "x", Kind: "float"}}}},
		"inverted range": {
			spec: JobSpec{Language: "lua", Source: "function f(x)\n    return x\nend\n", Entry: "f",
				Inputs: []InputSpec{{Name: "x", Kind: "int", DefInt: 1, Ranged: true, Min: 10, Max: 0}}},
			wantErr: `input "x": empty range, min 10 > max 0`,
		},
		// The BDD and incremental backends were removed; their spellings
		// are now unknown.
		"removed bdd solvermode": {
			spec:    JobSpec{Package: "simplejson", SolverMode: "bdd"},
			wantErr: `unknown solvermode "bdd" (want oneshot)`,
		},
		"removed incremental solvermode": {
			spec:    JobSpec{Package: "simplejson", SolverMode: "incremental"},
			wantErr: `unknown solvermode "incremental" (want oneshot)`,
		},
		// The subsuming cache layer was removed; exact is the only mode.
		"removed subsume cachemode": {
			spec:    JobSpec{Package: "simplejson", CacheMode: "subsume"},
			wantErr: `unknown cachemode "subsume" (want exact)`,
		},
	} {
		if tc.wantErr != "" {
			if err := tc.spec.Validate(); err == nil || err.Error() != tc.wantErr {
				t.Fatalf("%s: Validate() = %v, want %q", name, err, tc.wantErr)
			}
		}
		resp, data := s.do(t, "POST", "/v1/jobs", "", tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	req, _ := http.NewRequest("POST", s.ts.URL+"/v1/jobs", strings.NewReader("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if got := s.srv.Registry().Counter(obs.MServeJobsSubmitted).Value(); got != 0 {
		t.Fatalf("invalid submissions entered the ledger: submitted = %d", got)
	}
	resp, _ = s.do(t, "GET", "/v1/jobs/job-999", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// A ranged int confines an inline Lua job's inputs to [min, max], as it does
// a Python one.
func TestInlineLuaRangedInput(t *testing.T) {
	spec := JobSpec{
		Language: "lua",
		Source:   "function f(x)\n    if x < 5 then\n        return 1\n    end\n    return 2\nend\n",
		Entry:    "f",
		Inputs:   []InputSpec{{Name: "x", Kind: "int", DefInt: 1, Ranged: true, Min: 0, Max: 10}},
		Budget:   200_000,
	}
	s := newTestServer(t, Options{Workers: 1})
	id := s.submit(t, "", spec)
	if st := s.poll(t, id); st.State != StateSucceeded || st.Tests < 2 {
		t.Fatalf("ranged lua job: %s with %d tests (error %q), want both branches", st.State, st.Tests, st.Error)
	}
	_, data := s.do(t, "GET", "/v1/jobs/"+id+"/tests", "", nil)
	tests, err := symtest.UnmarshalTests(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range tests {
		v, ok := tc.Input["x[0]:32"]
		if x := int32(v); !ok || x < 0 || x > 10 {
			t.Errorf("input x=%d (present %v) outside [0, 10] (result %q)", x, ok, tc.Result)
		}
	}
}

// An inline-source job runs end to end.
func TestInlineSourceJob(t *testing.T) {
	spec := JobSpec{
		Language: "python",
		Source:   "def check(s):\n    if s[0] == \"a\":\n        raise ValueError()\n    return 1\n",
		Entry:    "check",
		Inputs:   []InputSpec{{Name: "s", Kind: "string", Len: 2, Default: "zz"}},
		Budget:   100_000,
	}
	s := newTestServer(t, Options{Workers: 1})
	id := s.submit(t, "", spec)
	st := s.poll(t, id)
	if st.State != StateSucceeded {
		t.Fatalf("inline job: %s (error %q)", st.State, st.Error)
	}
	if st.Tests < 2 {
		t.Fatalf("inline job found %d tests, want both branches", st.Tests)
	}
}

// The events endpoint streams the job's JSONL trace through to the
// session-end event.
func TestEventsStream(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	id := s.submit(t, "", quickSpec(5))
	resp, data := s.do(t, "GET", "/v1/jobs/"+id+"/events", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	events, err := obs.ParseJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{obs.KindSessionStart, obs.KindSessionEnd, obs.KindTestCase} {
		if !kinds[want] {
			t.Fatalf("trace stream missing %q events (got %v)", want, kinds)
		}
	}
	// Tests arrive only after the job is terminal — which it is, since the
	// stream ended.
	resp, _ = s.do(t, "GET", "/v1/jobs/"+id+"/tests", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tests after stream end: status %d", resp.StatusCode)
	}
}

// Tests of a non-terminal job answer 409.
func TestTestsConflictWhileRunning(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	id := s.submit(t, "", longSpec(1))
	s.waitState(t, id, StateRunning)
	resp, _ := s.do(t, "GET", "/v1/jobs/"+id+"/tests", "", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("tests while running: status %d, want 409", resp.StatusCode)
	}
	s.do(t, "DELETE", "/v1/jobs/"+id, "", nil)
}

// Summary sanity: the served summary is a real chef.Summary (non-zero work).
func TestServedSummaryCarriesStats(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	id := s.submit(t, "", quickSpec(11))
	st := s.poll(t, id)
	if st.Summary == nil {
		t.Fatal("terminal job carries no summary")
	}
	var zero chef.Summary
	if *st.Summary == zero {
		t.Fatal("summary is all zeroes")
	}
	if st.Summary.Runs == 0 || st.Summary.LLPaths == 0 {
		t.Fatalf("summary lacks engine work: %+v", st.Summary)
	}
}
