// Package obs is the engine's observability layer: a lightweight,
// allocation-conscious metrics registry plus a structured event tracer.
//
// The paper's core performance claims (§2, §6) are about *where* exploration
// time goes — fork hot spots inside interpreter internals, solver cost per
// high-level path, CUPA's de-biasing effect. The end-of-run Stats structs
// hold only totals, so this package provides:
//
//   - Registry: named counters, gauges and duration histograms (virtual-clock
//     and wall-clock), plus CounterVec for per-site counters keyed by LLPC or
//     CUPA class. All cells are atomics, safe to read and merge while the
//     engine runs. Counters that mirror a Stats field are published from
//     that field when the session ends, so the registry and the snapshots
//     agree.
//   - Tracer: structured JSONL exploration events (forks, solver queries,
//     HLPC transitions, CUPA picks, test-case emissions) with a nil default,
//     so the hot path pays exactly one nil-check when tracing is disabled.
//
// Determinism contract: observation never feeds back into the engine. Wall
// clock readings exist only in metric/trace output, never in engine state, so
// a traced run produces byte-identical engine output to an untraced one.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names, shared by the instrumented packages and documented
// in docs/OBSERVABILITY.md. Keeping them here gives one source of truth for
// dashboards and the CI smoke greps.
const (
	// Low-level engine.
	MRuns            = "engine.runs"
	MHangs           = "engine.hangs"
	MLLPaths         = "engine.llpaths"
	MForks           = "engine.forks"
	MDupStates       = "engine.dup_states"
	MUnsatStates     = "engine.unsat_states"
	MUnknownStates   = "engine.unknown_states"
	MDivergences     = "engine.divergences"
	MStatesPending   = "engine.states.pending"   // gauge: states still queued when the session ended
	MStatesCompleted = "engine.states.completed" // counter: finished runs
	MForksByLLPC     = "engine.forks.by_llpc"    // counter vec keyed by LLPC

	// Solver.
	MSolverQueries      = "solver.queries"
	MSolverSat          = "solver.sat"
	MSolverUnsat        = "solver.unsat"
	MSolverUnknown      = "solver.unknown"
	MSolverCacheHits    = "solver.cache.hits"
	MSolverCacheMisses  = "solver.cache.misses"
	MSolverCacheEntries = "solver.cache.entries"   // gauge, set at dump time
	MSolverCacheEvicted = "solver.cache.evictions" // gauge, set at dump time
	MSolverQueryVirt    = "solver.query.virt"      // histogram: propagations per query
	MSolverQueryWall    = "solver.query.wall_ns"   // histogram: wall-clock ns per query

	// Per-layer decomposition of solver.cache.hits: the in-memory exact
	// memo and the persistent store.
	MSolverCacheHitsExact   = "solver.cache.hits.exact"
	MSolverCacheHitsPersist = "solver.cache.hits.persist"

	// Persistent counterexample cache (the -cachefile store).
	MSolverPersistLoaded      = "solver.persist.loaded"       // gauge: entries loaded at startup
	MSolverPersistAppended    = "solver.persist.appended"     // counter: entries appended this run
	MSolverPersistRetries     = "solver.persist.retries"      // counter: flush retry attempts after a failed write
	MSolverPersistWriteErrors = "solver.persist.write_errors" // counter: failed physical write attempts
	MSolverPersistLost        = "solver.persist.lost"         // counter: entries dropped after the retry budget

	// Graceful degradation (states re-queued/abandoned on solver.Unknown,
	// sessions stalled by injected worker faults).
	MStatesRequeued  = "engine.states.requeued"  // counter: Unknown states re-queued for retry
	MStatesAbandoned = "engine.states.abandoned" // counter: states dropped after the retry budget
	MSessionsStalled = "chef.sessions.stalled"   // counter: sessions that never started (worker.stall)

	// Fault injection (internal/faults).
	MFaultsInjected      = "faults.injected"                // counter: total faults fired
	MFaultsSolverUnknown = "faults.injected.solver_unknown" // counter: forced Unknown verdicts
	MFaultsPersistWrite  = "faults.injected.persist_write"  // counter: failed/shortened writes
	MFaultsWorkerStall   = "faults.injected.worker_stall"   // counter: stalled sessions

	// CUPA.
	MCupaSelections   = "cupa.selections"
	MCupaPicksByClass = "cupa.picks.by_class" // counter vec keyed by top-level class

	// CHEF layer.
	MChefLogPC   = "chef.logpc" // high-level instructions observed
	MChefTests   = "chef.tests"
	MChefHLPaths = "chef.hlpaths"

	// Serving layer (internal/serve). Job accounting mirrors the engine's
	// Unknown == Requeued + Abandoned invariant one level up: at any quiescent
	// point, submitted == succeeded + degraded + cancelled + failed +
	// queued(gauge) + running(gauge) — no job is ever silently lost.
	MServeJobsSubmitted = "serve.jobs.submitted" // counter: accepted submissions
	MServeJobsRejected  = "serve.jobs.rejected"  // counter: 429/503 rejections (never counted as submitted)
	MServeJobsInvalid   = "serve.jobs.invalid"   // counter: 400 malformed specs (never counted as submitted)
	MServeJobsSucceeded = "serve.jobs.succeeded" // counter: jobs that ran to completion
	MServeJobsDegraded  = "serve.jobs.degraded"  // counter: terminal but degraded (stalled session)
	MServeJobsCancelled = "serve.jobs.cancelled" // counter: cancelled via DELETE or drain timeout
	MServeJobsFailed    = "serve.jobs.failed"    // counter: jobs that errored or panicked
	MServeJobsQueued    = "serve.jobs.queued"    // gauge: jobs waiting for a worker slot
	MServeJobsRunning   = "serve.jobs.running"   // gauge: jobs currently executing
	MServeSlotsInUse    = "serve.slots.in_use"   // gauge: worker slots held by running jobs (sharded jobs hold several)

	// Path-space sharding (internal/chef's ShardedSession; see
	// docs/DESIGN.md "Path-space sharding"). Every family is a pure
	// function of (seed, budget, shard semantics) and byte-identical
	// across worker counts.
	MShardEpochs       = "shard.epochs"           // counter: BSP epochs executed
	MShardRangesLive   = "shard.ranges.live"      // gauge: ranges with pending work at the last barrier
	MShardHandoffs     = "shard.handoffs.states"  // counter: states delivered across ranges
	MShardVisitedNotes = "shard.handoffs.visited" // counter: trail signatures delivered across ranges
	MShardHandoffDups  = "shard.handoffs.dup"     // counter: delivered states dropped as already-visited
	MShardHandoffDepth = "shard.handoff.depth"    // histogram: per-(epoch,target) delivered queue depth
	MShardStalled      = "shard.workers.stalled"  // counter: workers lost to worker.stall injection
	MChefTestsMerged   = "chef.tests.merged"      // counter: distinct tests after cross-range HLSig dedup

	// MShardSteals is no longer emitted: epoch workers pull cells from a
	// work queue and own no range. The name stays because the benchmark's
	// per-layer table reads it, where it reports 0; drop it with the next
	// benchmark change.
	MShardSteals = "shard.steals"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of exponential (base-2) histogram buckets.
// Bucket 0 holds non-positive observations; bucket i (1 <= i < HistBuckets-1)
// holds values v with 2^(i-1) <= v < 2^i; the last bucket is the overflow
// bucket for everything at or above 2^(HistBuckets-2) (~2.7e11, comfortably
// above any per-query latency in ns).
const HistBuckets = 40

// Histogram is a fixed-bucket exponential histogram of int64 observations.
// All cells are atomics; Observe is lock-free.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// BucketOf returns the bucket index an observation lands in.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets-1 {
		return HistBuckets - 1
	}
	return b
}

// BucketBounds returns the inclusive [lo, hi] value range of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	switch {
	case i <= 0:
		return 0, 0
	case i >= HistBuckets-1:
		return 1 << (HistBuckets - 2), 1<<63 - 1
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[BucketOf(v)].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of positive observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// merge folds o into h (bucket-wise, used by Registry.Merge).
func (h *Histogram) merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for {
		cur, ov := h.max.Load(), o.max.Load()
		if ov <= cur || h.max.CompareAndSwap(cur, ov) {
			return
		}
	}
}

// CounterVec is a family of counters keyed by a uint64 label — per-LLPC fork
// counters, per-class CUPA pick counters. Lookup takes a short mutex; the
// returned cells are atomics.
type CounterVec struct {
	mu sync.Mutex
	m  map[uint64]*Counter
}

// At returns (creating if needed) the counter for key.
func (v *CounterVec) At(key uint64) *Counter {
	v.mu.Lock()
	c := v.m[key]
	if c == nil {
		c = &Counter{}
		v.m[key] = c
	}
	v.mu.Unlock()
	return c
}

// Snapshot returns a copy of the per-key counts.
func (v *CounterVec) Snapshot() map[uint64]int64 {
	v.mu.Lock()
	out := make(map[uint64]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	v.mu.Unlock()
	return out
}

// Registry is a namespace of named metrics. Metric accessors get-or-create,
// so instrumentation sites never need registration boilerplate. A Registry is
// safe for concurrent use; per-session child registries can be folded into a
// parent with Merge.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	vecs     map[string]*CounterVec
	labelers map[string]func(uint64) string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		vecs:     map[string]*CounterVec{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// CounterVec returns the named counter family, creating it on first use.
func (r *Registry) CounterVec(name string) *CounterVec {
	r.mu.Lock()
	v := r.vecs[name]
	if v == nil {
		v = &CounterVec{m: map[uint64]*Counter{}}
		r.vecs[name] = v
	}
	r.mu.Unlock()
	return v
}

// SetVecLabeler registers a label resolver for the named counter vec: every
// snapshot (text dump, -metrics-json, /metrics, Prometheus exposition)
// renders keys through f instead of raw hex. f returning "" falls back to the
// hex form for that key. Labelers follow metrics through Merge, so child
// registries inherit the parent's resolvers.
func (r *Registry) SetVecLabeler(name string, f func(uint64) string) {
	r.mu.Lock()
	if r.labelers == nil {
		r.labelers = map[string]func(uint64) string{}
	}
	r.labelers[name] = f
	r.mu.Unlock()
}

// vecLabel renders one vec key through the registered labeler, falling back
// to hex.
func vecLabel(f func(uint64) string, k uint64) string {
	if f != nil {
		if s := f(k); s != "" {
			return s
		}
	}
	return fmt.Sprintf("0x%x", k)
}

// Merge folds every metric of src into r: counters and histograms add,
// gauges add (a merged gauge is the sum over children — for MStatesPending
// that is the total of states still queued when the sessions ended). src should be quiescent;
// r may be concurrently read. The parallel experiment harness uses Merge to
// aggregate per-session child registries.
func (r *Registry) Merge(src *Registry) {
	if src == nil {
		return
	}
	src.mu.Lock()
	counters := make(map[string]int64, len(src.counters))
	for n, c := range src.counters {
		counters[n] = c.Value()
	}
	gauges := make(map[string]int64, len(src.gauges))
	for n, g := range src.gauges {
		gauges[n] = g.Value()
	}
	hists := make(map[string]*Histogram, len(src.hists))
	for n, h := range src.hists {
		hists[n] = h
	}
	vecs := make(map[string]map[uint64]int64, len(src.vecs))
	for n, v := range src.vecs {
		vecs[n] = v.Snapshot()
	}
	labelers := make(map[string]func(uint64) string, len(src.labelers))
	for n, f := range src.labelers {
		labelers[n] = f
	}
	src.mu.Unlock()

	for n, v := range counters {
		r.Counter(n).Add(v)
	}
	for n, v := range gauges {
		r.Gauge(n).Add(v)
	}
	for n, h := range hists {
		r.Histogram(n).merge(h)
	}
	for n, m := range vecs {
		dst := r.CounterVec(n)
		for k, v := range m {
			dst.At(k).Add(v)
		}
	}
	r.mu.Lock()
	for n, f := range labelers {
		if _, ok := r.labelers[n]; !ok {
			if r.labelers == nil {
				r.labelers = map[string]func(uint64) string{}
			}
			r.labelers[n] = f
		}
	}
	r.mu.Unlock()
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	N  int64  `json:"n"`
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the mean positive observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, serializable as JSON with
// deterministic (sorted) key order.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Vecs       map[string]map[string]int64  `json:"vecs,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	vecs := make(map[string]*CounterVec, len(r.vecs))
	for n, v := range r.vecs {
		vecs[n] = v
	}
	labelers := make(map[string]func(uint64) string, len(r.labelers))
	for n, f := range r.labelers {
		labelers[n] = f
	}
	r.mu.Unlock()

	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Vecs:       map[string]map[string]int64{},
	}
	for n, c := range counters {
		out.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		out.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
		for i := 0; i < HistBuckets; i++ {
			if n := h.Bucket(i); n > 0 {
				lo, hi := BucketBounds(i)
				hs.Buckets = append(hs.Buckets, BucketCount{Lo: lo, Hi: hi, N: n})
			}
		}
		out.Histograms[n] = hs
	}
	for n, v := range vecs {
		m := map[string]int64{}
		label := labelers[n]
		for k, c := range v.Snapshot() {
			m[vecLabel(label, k)] = c
		}
		out.Vecs[n] = m
	}
	return out
}

// MarshalJSON renders the snapshot of the registry (maps serialize with
// sorted keys, so the output is deterministic for fixed values).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// HitRate returns hits/(hits+misses) for a pair of counters, and whether any
// events were recorded.
func (r *Registry) HitRate(hitsName, missesName string) (float64, bool) {
	h := r.Counter(hitsName).Value()
	m := r.Counter(missesName).Value()
	if h+m == 0 {
		return 0, false
	}
	return float64(h) / float64(h+m), true
}

// WriteText renders the registry as a sorted, human-readable dump: counters
// and gauges one per line, histograms with count/mean/max plus an ASCII
// bucket sparkline, counter vecs as their top entries. The derived
// solver-cache hit rate is appended when the cache counters are present.
func (r *Registry) WriteText(w io.Writer) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %d\n", n, snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %d (gauge)\n", n, snap.Gauges[n])
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		fmt.Fprintf(w, "%-28s count=%d mean=%.1f max=%d\n", n, h.Count, h.Mean(), h.Max)
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "    [%12d, %12d]  %-7d %s\n", b.Lo, b.Hi, b.N, bar(b.N, h.Count))
		}
	}
	names = names[:0]
	for n := range snap.Vecs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %d keys\n", n, len(snap.Vecs[n]))
		for _, kv := range topEntries(snap.Vecs[n], 8) {
			fmt.Fprintf(w, "    %-16s %d\n", kv.k, kv.v)
		}
	}
	if rate, ok := r.HitRate(MSolverCacheHits, MSolverCacheMisses); ok {
		fmt.Fprintf(w, "%-28s %.1f%% (derived)\n", "solver.cache.hit_rate", 100*rate)
	}
}

type kv struct {
	k string
	v int64
}

// topEntries returns the n largest entries of m, ties broken by key, so text
// dumps are deterministic.
func topEntries(m map[string]int64, n int) []kv {
	all := make([]kv, 0, len(m))
	for k, v := range m {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// bar renders a proportional ASCII bar for histogram buckets.
func bar(n, total int64) string {
	if total <= 0 {
		return ""
	}
	w := int(40 * n / total)
	if w == 0 && n > 0 {
		w = 1
	}
	return strings.Repeat("#", w)
}

// Publish exposes the registry's live snapshot as an expvar variable (and
// therefore on the /debug/vars endpoint of any HTTP server using the default
// mux). Call at most once per name per process — expvar panics on duplicate
// names.
func (r *Registry) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
