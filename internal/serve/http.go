package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"chef/internal/chef"
	"chef/internal/obs"
	"chef/internal/symtest"
)

// jobStatus is the wire form of GET /v1/jobs/{id}.
type jobStatus struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant,omitempty"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	// Summary is the session's chef.Summary snapshot, present once the job
	// is terminal (absent for failed jobs that never built a session).
	Summary *chef.Summary `json:"summary,omitempty"`
	Tests   int           `json:"tests,omitempty"`
	// Metrics is the job's own registry snapshot (per-job counters such as
	// solver.cache.hits.persist), present once the job is terminal. The
	// server's /metrics endpoint reports the merged totals.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// status snapshots a job under the server lock.
func (s *Server) status(j *Job) jobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := jobStatus{ID: j.ID, Tenant: j.Tenant, State: j.State, Error: j.Error}
	if j.State.Terminal() {
		if j.Result != nil {
			sum := j.Result.Summary
			st.Summary = &sum
			st.Tests = len(j.Result.Tests)
		}
		m := j.Metrics
		st.Metrics = &m
	}
	return st
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/tests", s.handleTests)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a job. The tenant is the X-API-Key header ("" is the
// anonymous tenant). Responses: 202 accepted, 400 invalid spec, 429 queue
// full, 503 draining (both with Retry-After).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.mInvalid.Inc()
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, err := s.Submit(r.Header.Get("X-API-Key"), spec)
	if err != nil {
		var se *SubmitError
		if ok := asSubmitError(err, &se); ok {
			switch {
			case se.Invalid:
				writeError(w, http.StatusBadRequest, "%v", se.Err)
			case se.Busy:
				w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
				writeError(w, http.StatusTooManyRequests, "%v", se.Err)
			default:
				// Draining: the process is going away, but a peer (or this
				// one, restarted) will take submissions again — give clients
				// the same backoff hint the 429 path sets.
				w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
				writeError(w, http.StatusServiceUnavailable, "%v", se.Err)
			}
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// asSubmitError is errors.As for *SubmitError without the reflection round
// trip (Submit returns it directly).
func asSubmitError(err error, out **SubmitError) bool {
	se, ok := err.(*SubmitError)
	if ok {
		*out = se
	}
	return ok
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleEvents streams the job's JSONL trace, following it until the job is
// terminal (chunked; each batch is flushed as it is emitted).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var cur traceCursor
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		data, next, done := j.trace.readFrom(cur)
		cur = next
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// handleTests returns the generated test cases as NDJSON — the same bytes,
// in the same order, as the chef CLI's -out file. 409 until terminal.
func (s *Server) handleTests(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	terminal := j.State.Terminal()
	res := j.Result
	s.mu.Unlock()
	if !terminal {
		writeError(w, http.StatusConflict, "job %s is %s; tests are available once it is terminal", j.ID, j.State)
		return
	}
	var tests []symtest.SerializedTest
	if res != nil {
		tests = res.Tests
	}
	data, err := symtest.MarshalTests(tests)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.Cancel(j.ID)
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// handleHealthz reports liveness plus the admission-relevant load: queue
// depth, running count and the per-tenant running map, so a load balancer
// can steer tenants away from a saturated instance. The status codes are
// unchanged (200 healthy, 503 draining); only the body grew a JSON shape.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleMetrics renders the server-total registry, first publishing the
// persistent store's live traffic counts into it. The format is
// content-negotiated on the Accept header: application/json returns the
// structured snapshot, text/plain (what Prometheus sends) returns the
// exposition format with per-tenant and per-outcome labels, and anything
// else (a bare curl) keeps the original human-readable text dump.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.opts.Persist.Publish(s.opts.Metrics)
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/json"):
		writeJSON(w, http.StatusOK, s.opts.Metrics.Snapshot())
	case strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics"):
		w.Header().Set("Content-Type", obs.PromContentType)
		s.opts.Metrics.WriteProm(w)
		s.writePromExtras(w)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.opts.Metrics.WriteText(w)
	}
}

// writePromExtras appends the labeled serve-level families the flat registry
// cannot express: the job ledger keyed by outcome and the live per-tenant
// running gauge.
func (s *Server) writePromExtras(w io.Writer) {
	outcomes := []struct {
		name string
		c    *obs.Counter
	}{
		{"cancelled", s.mCancelled},
		{"failed", s.mFailed},
		{"invalid", s.mInvalid},
		{"rejected", s.mRejected},
		{"submitted", s.mSubmitted},
		{"succeeded", s.mSucceeded},
	}
	fmt.Fprintf(w, "# TYPE chef_serve_jobs_by_outcome_total counter\n")
	for _, o := range outcomes {
		fmt.Fprintf(w, "chef_serve_jobs_by_outcome_total{outcome=\"%s\"} %d\n", o.name, o.c.Value())
	}
	h := s.Health()
	tenants := make([]string, 0, len(h.Tenants))
	for t := range h.Tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Fprintf(w, "# TYPE chef_serve_tenant_running gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "chef_serve_tenant_running{tenant=\"%s\"} %d\n", obs.PromEscapeLabel(t), h.Tenants[t])
	}
}
