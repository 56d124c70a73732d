package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the instrumented stack. The schema is documented in
// docs/OBSERVABILITY.md; cmd/chef-trace consumes these.
const (
	KindSessionStart = "session-start" // a CHEF session begins (seed, strategy)
	KindSessionEnd   = "session-end"   // a session finished (tests, hl/ll paths)
	KindRunEnd       = "run-end"       // one concrete run of the interpreter ended
	KindLLFork       = "ll-fork"       // an alternate state registered at an LL branch site
	KindHLEdge       = "hlpc-edge"     // first observation of a high-level CFG transition
	KindSolverQuery  = "solver-query"  // one satisfiability query (result, latency, cache)
	KindCUPAPick     = "cupa-pick"     // CUPA selected a state (top-level class)
	KindTestCase     = "testcase"      // a new high-level path was distilled to a test case
	KindStateRequeue = "state-requeue" // an Unknown state was re-queued for retry
	KindStateAbandon = "state-abandon" // a state was dropped after its retry budget
	KindSpan         = "span"          // a profiler span closed (layer, self/total durations)
)

// Event is one structured exploration event. Fields are a flat union across
// kinds; unused fields are omitted from the JSON encoding. T is the session's
// virtual clock; WallNs is stamped by the JSONL tracer at emission and never
// enters engine state (determinism contract).
type Event struct {
	T       int64  `json:"t"`
	WallNs  int64  `json:"wall_ns,omitempty"`
	Kind    string `json:"kind"`
	Session string `json:"session,omitempty"`

	// Location.
	LLPC    uint64 `json:"llpc,omitempty"`
	From    uint64 `json:"from,omitempty"` // hlpc-edge: source HLPC
	HLPC    uint64 `json:"hlpc,omitempty"`
	DynHLPC uint64 `json:"dyn_hlpc,omitempty"`
	Opcode  uint32 `json:"opcode,omitempty"`

	// Fork decisions.
	Decision string `json:"decision,omitempty"` // "flip-taken" | "flip-untaken" | "exclude"

	// Solver queries.
	Result      string `json:"result,omitempty"` // sat | unsat | unknown; run status; test result
	VirtCost    int64  `json:"virt_cost,omitempty"`
	WallCost    int64  `json:"wall_cost_ns,omitempty"`
	CacheHit    bool   `json:"cache_hit,omitempty"`
	Constraints int    `json:"constraints,omitempty"`
	PathSig     uint64 `json:"path_sig,omitempty"` // trail signature of the querying path

	// Runs and test cases.
	Status   string `json:"status,omitempty"`
	Steps    int64  `json:"steps,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	Diverged bool   `json:"diverged,omitempty"`
	HLLen    int    `json:"hl_len,omitempty"`
	Sig      string `json:"sig,omitempty"`

	// CUPA.
	Class uint64 `json:"class,omitempty"`

	// Profiler spans. VirtCost/WallCost above carry the span's total
	// durations; SelfVirt/SelfWall exclude the totals of direct child spans.
	Layer    string `json:"layer,omitempty"`
	Parent   string `json:"parent,omitempty"`
	SelfVirt int64  `json:"self_virt,omitempty"`
	SelfWall int64  `json:"self_wall_ns,omitempty"`

	// Degradation.
	Retries int `json:"retries,omitempty"` // state-requeue/abandon: attempts so far

	// Session lifecycle.
	Seed     int64  `json:"seed,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Tests    int    `json:"tests,omitempty"`
	HLPaths  int    `json:"hl_paths,omitempty"`
	LLPaths  int64  `json:"ll_paths,omitempty"`
}

// Tracer receives exploration events. Implementations must be safe for
// concurrent use (parallel harness sessions share one tracer). Events pass by
// value, so an emission site builds its event on the stack and a tracer that
// fills a field (WallNs, Session) edits only its own copy. Goroutines that
// must not contend on one tracer each emit into a segment of it instead
// (see Segment).
//
// The disabled case is a nil Tracer value held by the instrumented component:
// every site guards with a single nil-check, so the hot path cost of disabled
// tracing is one predictable branch.
type Tracer interface {
	Emit(ev Event)
}

// JSONL writes events as newline-delimited JSON. Safe for concurrent use.
type JSONL struct {
	mu        sync.Mutex
	bw        *bufio.Writer
	scratch   []byte // reused encoding buffer, guarded by mu
	closer    io.Closer
	start     time.Time
	stampWall bool
}

// NewJSONL builds a tracer writing to w. If w is an io.Closer, Close closes
// it after flushing. Events are stamped with wall-clock nanoseconds since the
// tracer's creation (DisableWallClock turns this off for byte-stable traces).
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	t := &JSONL{bw: bw, start: time.Now(), stampWall: true}
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	return t
}

// DisableWallClock stops stamping WallNs and drops the measured wall
// durations of spans and solver queries (WallCost, SelfWall), making traces
// byte-deterministic for fixed seeds (used by tests and golden traces).
func (t *JSONL) DisableWallClock() { t.stampWall = false }

// stamp sets ev's wall-clock fields as the tracer writes them: WallNs
// stamped, or every wall field zeroed under DisableWallClock.
func (t *JSONL) stamp(ev *Event) {
	if t.stampWall {
		ev.WallNs = time.Since(t.start).Nanoseconds()
		return
	}
	ev.WallCost, ev.SelfWall = 0, 0
}

// Emit implements Tracer.
func (t *JSONL) Emit(ev Event) {
	t.mu.Lock()
	t.stamp(&ev)
	t.scratch = append(AppendJSON(t.scratch[:0], &ev), '\n')
	_, _ = t.bw.Write(t.scratch)
	t.mu.Unlock()
}

// Close flushes buffered events and closes the underlying writer when it is
// closable.
func (t *JSONL) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil {
		return err
	}
	if t.closer != nil {
		return t.closer.Close()
	}
	return nil
}

// Collect buffers events in memory, for tests and in-process analyses.
type Collect struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (c *Collect) Emit(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the collected events.
func (c *Collect) Events() []Event {
	c.mu.Lock()
	out := append([]Event(nil), c.events...)
	c.mu.Unlock()
	return out
}

// CountKind returns how many collected events have the given kind.
func (c *Collect) CountKind(kind string) int {
	c.mu.Lock()
	n := 0
	for i := range c.events {
		if c.events[i].Kind == kind {
			n++
		}
	}
	c.mu.Unlock()
	return n
}

// sessionTracer labels every event with a session name before forwarding.
type sessionTracer struct {
	inner Tracer
	name  string
}

// Emit implements Tracer.
func (t sessionTracer) Emit(ev Event) {
	if ev.Session == "" {
		ev.Session = t.name
	}
	t.inner.Emit(ev)
}

// WithSession wraps a tracer so all events carry the given session label.
// Returns the tracer unchanged when it is nil or the name is empty.
func WithSession(t Tracer, name string) Tracer {
	if t == nil || name == "" {
		return t
	}
	return sessionTracer{inner: t, name: name}
}

// fanoutTracer forwards every event to each of its members.
type fanoutTracer struct{ members []Tracer }

// Emit implements Tracer.
func (t fanoutTracer) Emit(ev Event) {
	for _, m := range t.members {
		m.Emit(ev)
	}
}

// Fanout combines tracers into one that forwards every event to each of
// them. Nil members are skipped; Fanout returns nil when none remain and the
// sole member itself when only one does, so callers can pass the result
// straight into an Options.Tracer field.
func Fanout(tracers ...Tracer) Tracer {
	members := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			members = append(members, t)
		}
	}
	switch len(members) {
	case 0:
		return nil
	case 1:
		return members[0]
	}
	return fanoutTracer{members: members}
}

// ParseJSONL decodes a JSONL trace, skipping blank lines. It is the reading
// half of the JSONL tracer, shared by cmd/chef-trace and tests.
func ParseJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, ev)
	}
}
