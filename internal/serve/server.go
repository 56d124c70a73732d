package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
)

// Options configures a Server.
type Options struct {
	// Workers bounds the worker pool; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueCap bounds the number of jobs waiting for a worker slot; a full
	// queue rejects submissions with 429 + Retry-After. 0 means 64.
	QueueCap int
	// TenantLimit caps how many jobs of one tenant (X-API-Key) may run
	// concurrently; excess jobs wait in the queue behind other tenants'
	// work. 0 disables per-tenant limits.
	TenantLimit int
	// RetryAfterSeconds is the Retry-After hint on 429 responses; 0 means 1.
	RetryAfterSeconds int
	// Persist, when non-nil, is the shared warm store: every job gets a
	// View() snapshot at start (deterministic per job) and appends flow back
	// for later jobs — cross-job warmth without cross-job nondeterminism.
	Persist *solver.PersistentStore
	// Faults is the server-wide fault-injection plan, threaded into every
	// job. A job's injector is scoped "tenant/jobID", and worker.stall
	// session= rules match the job's global ordinal.
	Faults *faults.Plan
	// Metrics is the server-total registry (serve.* counters, merged per-job
	// engine metrics). Required for /metrics; NewServer creates one if nil.
	Metrics *obs.Registry
	// Tracer, when non-nil, additionally receives every job's events (the
	// per-job /events buffer is always populated independently).
	Tracer obs.Tracer
}

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. The terminal states are succeeded, degraded,
// cancelled and failed; every submitted job reaches exactly one of them.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	// StateDegraded is terminal-but-degraded: the job's session was stalled
	// by an injected worker.stall fault and produced no tests.
	StateDegraded  JobState = "degraded"
	StateCancelled JobState = "cancelled"
	StateFailed    JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateSucceeded, StateDegraded, StateCancelled, StateFailed:
		return true
	}
	return false
}

// Job is one tracked submission. Fields are guarded by the server mutex;
// Result and Error are written once, before the state turns terminal.
type Job struct {
	ID      string
	Tenant  string
	Spec    JobSpec
	State   JobState
	Error   string
	Result  *JobResult
	Metrics obs.Snapshot // per-job registry snapshot, set when terminal

	ordinal int // global submission ordinal; SessionIndex for worker.stall
	slots   int // worker slots charged while running (sharded jobs weigh more)
	cancel  context.CancelFunc
	ctx     context.Context
	trace   *traceBuffer
	done    chan struct{} // closed when the job reaches a terminal state
}

// Server owns the job table, the bounded queue and the worker pool.
type Server struct {
	opts Options

	mu              sync.Mutex
	cond            *sync.Cond
	jobs            map[string]*Job
	queue           []*Job // FIFO, scanned for the first runnable job
	runningByTenant map[string]int
	slotsInUse      int // worker slots charged to running jobs (see jobSlots)
	nextID          int
	draining        bool
	closed          bool
	wg              sync.WaitGroup

	// lastPersist tracks the store counters already mirrored into the
	// registry (see mirrorPersist).
	lastPersist struct{ appended, retries, writeErrs, lost int64 }

	// serve.* metric handles (always non-nil; see Options.Metrics).
	mSubmitted, mRejected, mInvalid            *obs.Counter
	mSucceeded, mDegraded, mCancelled, mFailed *obs.Counter
	gQueued, gRunning, gSlots                  *obs.Gauge
}

// NewServer builds the server and starts its worker pool.
func NewServer(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.RetryAfterSeconds <= 0 {
		opts.RetryAfterSeconds = 1
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	opts.Metrics.SetVecLabeler(obs.MForksByLLPC, packages.LLPCLabel)
	s := &Server{
		opts:            opts,
		jobs:            map[string]*Job{},
		runningByTenant: map[string]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	reg := opts.Metrics
	s.mSubmitted = reg.Counter(obs.MServeJobsSubmitted)
	s.mRejected = reg.Counter(obs.MServeJobsRejected)
	s.mInvalid = reg.Counter(obs.MServeJobsInvalid)
	s.mSucceeded = reg.Counter(obs.MServeJobsSucceeded)
	s.mDegraded = reg.Counter(obs.MServeJobsDegraded)
	s.mCancelled = reg.Counter(obs.MServeJobsCancelled)
	s.mFailed = reg.Counter(obs.MServeJobsFailed)
	s.gQueued = reg.Gauge(obs.MServeJobsQueued)
	s.gRunning = reg.Gauge(obs.MServeJobsRunning)
	s.gSlots = reg.Gauge(obs.MServeSlotsInUse)
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Registry returns the server-total metrics registry.
func (s *Server) Registry() *obs.Registry { return s.opts.Metrics }

// SubmitError distinguishes rejection classes for the HTTP layer.
type SubmitError struct {
	// Busy: the queue is full (HTTP 429 + Retry-After).
	Busy bool
	// Draining: the server no longer accepts work (HTTP 503).
	Draining bool
	// Invalid: the spec failed validation (HTTP 400).
	Invalid bool
	Err     error
}

func (e *SubmitError) Error() string { return e.Err.Error() }

// Submit validates and enqueues a job for the given tenant ("" is the
// anonymous tenant). The spec is validated here so rejection is synchronous;
// compile errors of inline source surface later, as a failed job.
func (s *Server) Submit(tenant string, spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		s.mInvalid.Inc()
		return nil, &SubmitError{Invalid: true, Err: err}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		s.mRejected.Inc()
		return nil, &SubmitError{Draining: true, Err: fmt.Errorf("server is draining")}
	}
	if len(s.queue) >= s.opts.QueueCap {
		s.mRejected.Inc()
		return nil, &SubmitError{Busy: true, Err: fmt.Errorf("job queue full (%d queued)", len(s.queue))}
	}
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:      fmt.Sprintf("job-%d", s.nextID),
		Tenant:  tenant,
		Spec:    spec,
		State:   StateQueued,
		ordinal: s.nextID - 1,
		ctx:     ctx,
		cancel:  cancel,
		trace:   newTraceBuffer(),
		done:    make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.mSubmitted.Inc()
	s.gQueued.Set(int64(len(s.queue)))
	s.cond.Signal()
	return j, nil
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: a queued job turns terminal immediately, a running
// job's context is cancelled and the session stops at its next check (at
// most one engine run away). Returns false for unknown ids; cancelling an
// already-terminal job is a no-op reporting true.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	switch j.State {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.gQueued.Set(int64(len(s.queue)))
		j.State = StateCancelled
		s.mCancelled.Inc()
		j.cancel()
		close(j.done)
		s.cond.Broadcast()
	case StateRunning:
		j.cancel() // runJob finishes the bookkeeping
	}
	s.mu.Unlock()
	return true
}

// Draining reports whether the server has stopped accepting submissions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops accepting new submissions and waits for the queued and
// running jobs to finish. If ctx expires first, the remaining jobs are
// cancelled (they finish as cancelled, not lost) and Drain keeps waiting
// for the — now prompt — pool shutdown. The worker pool exits; the server
// cannot be reused afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for _, j := range s.jobs {
			if !j.State.Terminal() {
				j.cancel()
			}
		}
		// Queued jobs nobody will pick up turn terminal here.
		for _, j := range s.queue {
			j.State = StateCancelled
			s.mCancelled.Inc()
			close(j.done)
		}
		s.queue = nil
		s.gQueued.Set(0)
		s.cond.Broadcast()
		s.mu.Unlock()
		<-drained
	}
	return err
}

// Close is Drain with no deadline plus persistent-store shutdown; it returns
// the store's close error, if any (lost appends).
func (s *Server) Close() error {
	_ = s.Drain(context.Background())
	if s.opts.Persist != nil {
		return s.opts.Persist.Close()
	}
	return nil
}

// Accounting returns the job ledger used by the no-job-lost invariant:
// submitted == succeeded + degraded + cancelled + failed + queued + running
// at every quiescent point.
func (s *Server) Accounting() (submitted, terminal, queued, running int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	submitted = s.mSubmitted.Value()
	terminal = s.mSucceeded.Value() + s.mDegraded.Value() + s.mCancelled.Value() + s.mFailed.Value()
	queued = s.gQueued.Value()
	running = s.gRunning.Value()
	return
}

// Health is the /healthz payload: liveness plus the load numbers an
// admission controller needs. Tenants maps tenant name to its running job
// count (the anonymous "" tenant reports as "anonymous"); entries exist only
// while at least one job of that tenant runs.
type Health struct {
	Status  string `json:"status"` // "ok" | "draining"
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Workers int    `json:"workers"`
	// SlotsInUse is the worker-slot weight of the running jobs (a sharded
	// job charges one slot per shard worker, capped at Workers).
	SlotsInUse int            `json:"slots_in_use"`
	Tenants    map[string]int `json:"tenants_running,omitempty"`
}

// Health snapshots the server's load under the lock.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Status:     "ok",
		Queued:     len(s.queue),
		Running:    int(s.gRunning.Value()),
		Workers:    s.opts.Workers,
		SlotsInUse: s.slotsInUse,
	}
	if s.draining {
		h.Status = "draining"
	}
	if len(s.runningByTenant) > 0 {
		h.Tenants = make(map[string]int, len(s.runningByTenant))
		for t, n := range s.runningByTenant {
			if t == "" {
				t = "anonymous"
			}
			h.Tenants[t] = n
		}
	}
	return h
}

// worker is one pool goroutine: claim the next runnable job, run it, repeat
// until the server closes and the queue is empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// jobSlots is the worker-slot weight of a spec: a plain job charges one
// slot, a sharded job charges one per shard worker it may spin up, capped
// at the pool size so every valid job stays admissible.
func (s *Server) jobSlots(spec JobSpec) int {
	w := spec.Shards
	if w < 1 {
		w = 1
	}
	if w > s.opts.Workers {
		w = s.opts.Workers
	}
	return w
}

// nextJob blocks until a job is runnable (FIFO order, skipping jobs whose
// tenant is at its concurrency limit or whose slot weight does not fit the
// remaining pool capacity) or the pool is shutting down.
//
// Slot accounting keeps total admitted weight within the pool size, so a
// sharded job's epoch workers never oversubscribe the pool. The FIFO scan
// skips a heavy job that does not fit yet, which lets lighter jobs behind
// it keep the pool busy — at the cost that a steady light-job stream can
// starve a heavy one (see docs/SERVING.md).
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for i, j := range s.queue {
			if s.opts.TenantLimit > 0 && s.runningByTenant[j.Tenant] >= s.opts.TenantLimit {
				continue
			}
			w := s.jobSlots(j.Spec)
			if s.slotsInUse+w > s.opts.Workers {
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			j.State = StateRunning
			j.slots = w
			s.runningByTenant[j.Tenant]++
			s.slotsInUse += w
			s.gQueued.Set(int64(len(s.queue)))
			s.gRunning.Add(1)
			s.gSlots.Set(int64(s.slotsInUse))
			return j
		}
		if s.closed && len(s.queue) == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one claimed job and records its terminal state. Each job
// runs against a child metrics registry (merged into the server totals when
// it finishes) and a persistent-store view snapshotted at start.
func (s *Server) runJob(j *Job) {
	child := obs.NewRegistry()
	child.SetVecLabeler(obs.MForksByLLPC, packages.LLPCLabel)
	tracer := obs.Fanout(j.trace, s.opts.Tracer)
	eo := ExecOptions{
		Metrics:      child,
		Tracer:       tracer,
		Spans:        obs.NewSpanProfiler(child, tracer),
		Faults:       s.opts.Faults,
		Name:         j.Tenant + "/" + j.ID,
		SessionIndex: j.ordinal,
	}
	if s.opts.Persist != nil {
		eo.Persist = s.opts.Persist.View()
	}

	// A sharded job runs no more epoch workers than the slots it was
	// charged. Sharded results do not depend on the worker count, so only
	// the goroutine count changes; the job record keeps the submitted spec.
	spec := j.Spec
	spec.Shards = min(spec.Shards, j.slots)

	var res JobResult
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		// The serve.job span brackets the whole Execute call, so its wall
		// time includes spec build/compile overhead the session never sees;
		// its virtual duration is the session's, making its self virt zero.
		sp := eo.Spans.Start(obs.SpanServeJob)
		res, err = Execute(j.ctx, spec, eo)
		sp.End(res.Summary.VirtTime)
	}()

	s.mu.Lock()
	j.Metrics = child.Snapshot()
	switch {
	case err != nil:
		j.Error = err.Error()
		j.State = StateFailed
		s.mFailed.Inc()
	case res.Cancelled:
		j.Result = &res
		j.State = StateCancelled
		s.mCancelled.Inc()
	case res.Stalled:
		j.Result = &res
		j.State = StateDegraded
		s.mDegraded.Inc()
	default:
		j.Result = &res
		j.State = StateSucceeded
		s.mSucceeded.Inc()
	}
	s.runningByTenant[j.Tenant]--
	if s.runningByTenant[j.Tenant] == 0 {
		delete(s.runningByTenant, j.Tenant)
	}
	s.slotsInUse -= j.slots
	s.gSlots.Set(int64(s.slotsInUse))
	s.gRunning.Add(-1)
	s.opts.Metrics.Merge(child)
	j.cancel()
	close(j.done)
	j.trace.finish()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Done exposes the job's completion channel (closed at terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }
