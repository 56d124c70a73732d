package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/serve"
	"chef/internal/solver"
	"chef/internal/symexpr"
	"chef/internal/symtest"
)

// serveConfig is the closed-loop service workload: one client on one
// loopback connection submits jobs one at a time to an in-process
// chef-serve handler and waits for each job's tests before the next.
type serveConfig struct {
	budget int64 // virtual-time budget per job
	shards int   // shards per job; with Workers = nproc one job fills the pool
	poll   time.Duration
}

type serveBench struct {
	cfg     serveConfig
	dir     string
	targets map[string]*target
	prewarm []job
	jobs    []job  // one pass, in submission order
	store   []byte // the prewarmed persist store each pass starts from
}

// newServeWarm is the serve-warm set-up: compile the Table-3 packages, draw
// the jobs from seed, and run the prewarm jobs through a server whose store
// is then kept as every pass's starting point. Every package is prewarmed
// under one seed; a pass runs each package three times, under that seed
// again (persist reads) and under two fresh ones (persist misses and
// appends), in a seeded order, so the seed changes the inputs but not the
// mix. Two fresh seeds per package keep any one drawn seed from setting
// the tail latency.
func newServeWarm(cfg serveConfig, seed int64, dir string) (*serveBench, setupInfo, error) {
	b := &serveBench{cfg: cfg, dir: dir, targets: map[string]*target{}}
	var info setupInfo
	all := packages.All()
	for _, p := range all {
		t, ms, err := compileTarget(p)
		if err != nil {
			return nil, info, err
		}
		info.compileMs += ms
		b.targets[p.Name] = t
	}
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	fresh := func() int64 {
		for {
			if s := drawSeed(rng); !used[s] {
				used[s] = true
				return s
			}
		}
	}
	for _, p := range all {
		j := newJob(p, fresh())
		j.Prewarmed = true
		b.prewarm = append(b.prewarm, j)
		b.jobs = append(b.jobs, j, newJob(p, fresh()), newJob(p, fresh()))
	}
	rng.Shuffle(len(b.jobs), func(i, k int) { b.jobs[i], b.jobs[k] = b.jobs[k], b.jobs[i] })

	start := time.Now()
	path := filepath.Join(dir, "prewarm.store")
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, info, err
	}
	srv, err := b.start(path, nil)
	if err != nil {
		return nil, info, err
	}
	c := srv.client()
	for _, j := range b.prewarm {
		if _, err := c.run(b.spec(j)); err != nil {
			srv.stop()
			return nil, info, fmt.Errorf("prewarm %s/%d: %w", j.Package, j.Seed, err)
		}
	}
	c.http.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		return nil, info, err
	}
	if b.store, err = os.ReadFile(path); err != nil {
		return nil, info, err
	}
	info.prewarmS = time.Since(start).Seconds()
	return b, info, nil
}

func (b *serveBench) drawn() (jobs, prewarm []job) { return b.jobs, b.prewarm }

func (b *serveBench) spec(j job) serve.JobSpec {
	return serve.JobSpec{
		Package:    j.Package,
		Seed:       j.Seed,
		Budget:     b.cfg.budget,
		StepLimit:  stepLimit,
		Strategy:   "cupa-path",
		CacheMode:  "exact",
		SolverMode: "oneshot",
		Shards:     b.cfg.shards,
	}
}

// liveServer is one chef-serve instance behind a loopback listener.
type liveServer struct {
	srv     *serve.Server
	store   *solver.PersistentStore
	httpSrv *http.Server
	url     string
	served  chan error
	poll    time.Duration
}

// start opens the persist store at path and serves a fresh server on a
// loopback port. flush, when non-nil, receives the store's persist.flush
// spans.
func (b *serveBench) start(path string, flush *obs.Registry) (*liveServer, error) {
	store, err := solver.OpenPersistentStore(path)
	if err != nil {
		return nil, err
	}
	if flush != nil {
		store.Attach(solver.Instruments{Spans: obs.NewSpanProfiler(flush, nil)})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &liveServer{
		srv:    serve.NewServer(serve.Options{Workers: runtime.GOMAXPROCS(0), Persist: store}),
		store:  store,
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		poll:   b.cfg.poll,
	}
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP side down, drains the server and closes its store
// (flushing pending appends), then waits for the serve goroutine.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.httpSrv.Shutdown(ctx)
	serr := s.srv.Close()
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if herr != nil {
		return herr
	}
	return serr
}

// client is the benchmark's single closed-loop client: one keep-alive
// connection, one request at a time.
type client struct {
	http *http.Client
	s    *liveServer
}

func (s *liveServer) client() *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		s:    s,
	}
}

// jobStatus is the part of GET /v1/jobs/{id} the client reads.
type jobStatus struct {
	ID      string        `json:"id"`
	State   string        `json:"state"`
	Error   string        `json:"error"`
	Metrics *obs.Snapshot `json:"metrics"`
}

// served is the client's view of one job.
type served struct {
	id      string
	latency time.Duration // submit to tests received
	submit  time.Duration // the POST round trip
	jobWall time.Duration // the server's serve.job span
	tests   []byte        // NDJSON, in symtest.SortTests order
	parsed  []symtest.SerializedTest
}

// run submits spec, polls until the job is terminal and fetches its tests.
// A job that does not succeed, or any refused or failed call, is an error.
func (c *client) run(spec serve.JobSpec) (served, error) {
	var out served
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	start := time.Now()
	var st jobStatus
	if err := c.do(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st); err != nil {
		return out, err
	}
	out.id = st.ID
	out.submit = time.Since(start)
	for st.State == string(serve.StateQueued) || st.State == string(serve.StateRunning) {
		time.Sleep(c.s.poll)
		if err := c.do(http.MethodGet, "/v1/jobs/"+out.id, nil, http.StatusOK, &st); err != nil {
			return out, err
		}
	}
	if st.State != string(serve.StateSucceeded) {
		return out, fmt.Errorf("job %s ended %s: %s", out.id, st.State, st.Error)
	}
	var tests bytes.Buffer
	if err := c.do(http.MethodGet, "/v1/jobs/"+out.id+"/tests", nil, http.StatusOK, &tests); err != nil {
		return out, err
	}
	out.latency = time.Since(start)
	out.tests = tests.Bytes()
	if st.Metrics != nil {
		out.jobWall = time.Duration(st.Metrics.Counters["span."+obs.SpanServeJob+".wall_ns.total"])
	}
	out.parsed, err = symtest.UnmarshalTests(out.tests)
	return out, err
}

// do sends one request and decodes the response into out (a *bytes.Buffer
// receives the raw body). Any status other than want is an error.
func (c *client) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, c.s.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		buf.Write(data)
		return nil
	}
	return json.Unmarshal(data, out)
}

// pass runs the pass's jobs against a fresh server whose store starts from
// the prewarmed bytes, so every pass sees the same hits and misses. Each
// job's tests are replayed after its latency is taken. chef-serve always
// profiles its jobs, so traced and untraced passes run alike.
func (b *serveBench) pass(bool) (passResult, error) {
	r := passResult{attempted: len(b.jobs)}
	path := filepath.Join(b.dir, "pass.store")
	if err := os.WriteFile(path, b.store, 0o644); err != nil {
		return r, err
	}
	r.flushReg = obs.NewRegistry()
	srv, err := b.start(path, r.flushReg)
	if err != nil {
		return r, err
	}
	defer srv.stop()
	c := srv.client()
	defer c.http.CloseIdleConnections()

	cov := coverage{}
	before := readRuntime()
	start := time.Now()
	for _, j := range b.jobs {
		res, err := c.run(b.spec(j))
		if err != nil {
			// A failed job counts against the pass; the remaining jobs still
			// run so the failure rate is over every job attempted.
			fmt.Fprintf(os.Stderr, "perfbench: %s/%d: %v\n", j.Package, j.Seed, err)
			r.failed++
			continue
		}
		r.latencyMs = append(r.latencyMs, float64(res.latency)/1e6)
		r.submitMs = append(r.submitMs, float64(res.submit)/1e6)
		r.overheadMs = append(r.overheadMs, float64(res.latency-res.jobWall)/1e6)
		r.httpNs += res.latency
		r.tests += len(res.parsed)
		r.digest = digestOf(r.digest, res.tests)
		if sj, ok := srv.srv.Job(res.id); ok {
			<-sj.Done()
			r.solver.Add(sj.Result.SolverStats)
		}
		ok, _, err := r.replayAll(b.targets[j.Package], res.parsed, cov)
		if err != nil {
			return r, err
		}
		if !ok {
			r.failed++
		}
	}
	r.wall = time.Since(start)
	r.interned = symexpr.InternedCount()
	r.rt = runtimeDelta(before, readRuntime())
	r.covered, r.coverable = cov.total(b.targets)
	r.reg = srv.srv.Registry()
	r.appended = srv.store.Appended()
	return r, nil
}
