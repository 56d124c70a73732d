package solver

import (
	"sort"
	"time"

	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/symexpr"
)

// Result is the outcome of a satisfiability query.
type Result int8

// Query outcomes. Unknown is returned when the propagation budget is
// exhausted; the engine treats it as unsatisfiable, trading completeness for
// progress exactly as the paper concedes for hard constraints.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// CacheMode is kept only because the benchmark harness compiles against
// Options.Mode. The counterexample cache has a single configuration, the
// exact memo of QueryCache, so CacheExact is the only value and the solver
// ignores the field.
type CacheMode uint8

// CacheExact is the only CacheMode; see CacheMode.
const CacheExact CacheMode = 0

// Cost is the virtual work the backend performed for one Solve call, in the
// units Stats accumulates (and the engine converts to virtual time).
type Cost struct {
	Propagations int64
	Conflicts    int64
	ClausesAdded int64
}

// Options configure the solver front end. The zero value enables every
// optimization with an effectively unlimited budget.
type Options struct {
	// DisableSlicing turns off independent-constraint slicing.
	DisableSlicing bool
	// DisableCache turns off the query cache.
	DisableCache bool
	// Mode is ignored; it is kept only because the benchmark harness sets
	// it (see CacheMode).
	Mode CacheMode
	// PropBudget caps SAT propagations per query; 0 means the default cap.
	PropBudget int64
	// Persist, when non-nil, is a view of the disk-backed store of solved
	// queries (see persist.go), taken when the run or job starts. It is
	// consulted after the in-memory layers miss, and every result freshly
	// *solved* (never derived) by the backend is appended through it. A
	// persistent hit replays the recorded propagation cost into the solver's
	// stats, so a warm rerun spends the same virtual time a cold run would —
	// the store accelerates wall clock without perturbing deterministic
	// output.
	Persist *PersistView
	// Metrics, when non-nil, receives per-query latency histograms (virtual
	// propagations and wall-clock ns) and, from Publish, the query and cache
	// counters. Wall clock is read only when observability is enabled and
	// never enters solver results, so instrumented runs stay deterministic.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one structured event per Check call.
	Tracer obs.Tracer
	// Spans, when non-nil, receives hierarchical profiler spans: one
	// solver.check span per query, with blast/cache/persist sub-spans. Like a
	// Solver, a SpanProfiler serves a single goroutine. Purely observational.
	Spans *obs.SpanProfiler
	// Faults, when non-nil, injects deterministic solver faults (see
	// internal/faults): a fired solver.unknown rule forces the verdict of an
	// actually-solved query to Unknown, as if the propagation budget had
	// been exhausted. Cache and persistent hits are unaffected — a budget
	// miss can only happen on a real solve — and forced Unknowns are never
	// cached or persisted, exactly like real ones.
	Faults *faults.Injector
}

const defaultPropBudget = 4_000_000

// Stats accumulates solver work, expressed in units the engine converts to
// virtual time. Solver.Stats returns it by value — a point-in-time snapshot
// that does not track later queries; aggregators combine snapshots with Add
// rather than summing individual fields by hand. Every query counts one
// verdict, so Queries == SatQueries + UnsatQueries + Unknowns.
type Stats struct {
	Queries      int64
	SatQueries   int64
	UnsatQueries int64
	Unknowns     int64
	CacheHits    int64
	CacheMisses  int64
	Propagations int64
	Conflicts    int64
	ClausesAdded int64

	// Per-class decomposition of CacheHits.
	CacheHitsExact   int64
	CacheHitsPersist int64
}

// Add folds another snapshot into s, field by field. It is the merge helper
// for aggregating per-session snapshots (shard cells, benchmark passes).
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.SatQueries += o.SatQueries
	s.UnsatQueries += o.UnsatQueries
	s.Unknowns += o.Unknowns
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.ClausesAdded += o.ClausesAdded
	s.CacheHitsExact += o.CacheHitsExact
	s.CacheHitsPersist += o.CacheHitsPersist
}

// Solver decides conjunctions of width-1 bit-vector expressions.
// A Solver is not safe for concurrent use; concurrency happens one solver per
// session, each with its own private QueryCache.
type Solver struct {
	opts    Options
	stats   Stats
	cache   *QueryCache // nil iff DisableCache
	backend *oneshotBackend
	slicer  slicer
	work    []*symexpr.Expr // constant-filtered query, reused across queries

	// Observability (all nil when disabled).
	tracer    obs.Tracer
	spans     *obs.SpanProfiler
	now       func() int64 // virtual clock source for trace events
	hVirt     *obs.Histogram
	hWall     *obs.Histogram
	observing bool
}

// New returns a solver with the given options.
func New(opts Options) *Solver {
	if opts.PropBudget == 0 {
		opts.PropBudget = defaultPropBudget
	}
	s := &Solver{opts: opts}
	if !opts.DisableCache {
		s.cache = NewQueryCache(0)
	}
	if reg := opts.Metrics; reg != nil {
		s.hVirt = reg.Histogram(obs.MSolverQueryVirt)
		s.hWall = reg.Histogram(obs.MSolverQueryWall)
	}
	s.backend = newOneshotBackend(s)
	s.tracer = opts.Tracer
	s.spans = opts.Spans
	s.observing = opts.Metrics != nil || opts.Tracer != nil || opts.Spans != nil
	return s
}

// Instruments bundles the run-time attachments a Solver (or PersistentStore)
// owner may install after construction. Zero-valued fields leave the
// corresponding attachment unchanged, so owners can attach just the pieces
// they have.
type Instruments struct {
	// Now, when non-nil, is the virtual-clock source used to timestamp trace
	// events (the engine points it at its own clock). Purely observational.
	Now func() int64
	// Spans, when non-nil, replaces the hierarchical span profiler.
	Spans *obs.SpanProfiler
	// PropBudget, when > 0, replaces the per-query propagation budget; when
	// < 0 it restores the default. It models budget recovery in the
	// degradation tests: a query that came back Unknown under a starved
	// budget succeeds when retried after the budget recovers (Unknown
	// results are never cached, so the retry reaches the SAT core).
	PropBudget int64
}

// Attach installs run-time instruments on the solver. Fields left at their
// zero value keep the current attachment.
func (s *Solver) Attach(in Instruments) {
	if in.Now != nil {
		s.now = in.Now
	}
	if in.Spans != nil {
		s.spans = in.Spans
		s.observing = true
	}
	if in.PropBudget > 0 {
		s.opts.PropBudget = in.PropBudget
	} else if in.PropBudget < 0 {
		s.opts.PropBudget = defaultPropBudget
	}
}

// Stats returns a value snapshot of the accumulated counters, taken at call
// time. The copy does not track later queries (staleness-by-copy is the
// intended semantics); re-snapshot for fresh numbers and combine snapshots
// with Stats.Add.
func (s *Solver) Stats() Stats { return s.stats }

// Publish adds the accumulated counters to the solver's metrics registry
// (Options.Metrics), if it has one. The owner calls it once, when the
// solver's session ends: the Stats fields are the only count of each event,
// and the registry's counters are published from them.
func (s *Solver) Publish() {
	reg := s.opts.Metrics
	if reg == nil {
		return
	}
	st := s.stats
	reg.Counter(obs.MSolverQueries).Add(st.Queries)
	reg.Counter(obs.MSolverSat).Add(st.SatQueries)
	reg.Counter(obs.MSolverUnsat).Add(st.UnsatQueries)
	reg.Counter(obs.MSolverUnknown).Add(st.Unknowns)
	reg.Counter(obs.MSolverCacheHits).Add(st.CacheHits)
	reg.Counter(obs.MSolverCacheMisses).Add(st.CacheMisses)
	reg.Counter(obs.MSolverCacheHitsExact).Add(st.CacheHitsExact)
	reg.Counter(obs.MSolverCacheHitsPersist).Add(st.CacheHitsPersist)
}

// Cache returns the solver's private counterexample cache (nil when caching
// is disabled).
func (s *Solver) Cache() *QueryCache { return s.cache }

// Query is one satisfiability question over a path condition.
type Query struct {
	// PC is the conjunction to decide, in path order: root-most constraint
	// first, exactly as the engine's pcNode chain unrolls. The slicer keys
	// its prefix reuse off this order (consecutive queries share a pointer
	// prefix); the front end canonicalizes a copy for the cache layers and
	// the backend, so callers need not sort.
	PC []*symexpr.Expr
	// Base, when non-nil, supplies concrete values for input variables from
	// the parent path; slicing uses it to keep already-satisfied independent
	// constraint groups at their known values, so only the group touched by
	// the freshly negated constraint is re-solved.
	Base symexpr.Assignment
	// PathSig, when non-zero, identifies the exploration path the query
	// belongs to (the engine's trail signature). Purely observational: it
	// labels the query's trace event.
	PathSig uint64
}

// CheckQuery decides whether the conjunction q.PC is satisfiable. On Sat the
// returned assignment covers every variable in q.PC (with slicing on, values
// from q.Base are reused where valid).
//
// When observability is enabled (Options.Metrics/Tracer), CheckQuery
// additionally records per-query latency in virtual units (SAT propagations)
// and wall-clock ns, and emits a solver-query trace event. The wall clock is
// read only on this instrumented path and influences nothing the solver
// returns.
func (s *Solver) CheckQuery(q Query) (Result, symexpr.Assignment) {
	if !s.observing {
		return s.check(q)
	}
	propsBefore := s.stats.Propagations
	hitsBefore := s.stats.CacheHits
	sp := s.spans.Start(obs.SpanSolverCheck)
	start := time.Now()
	res, model := s.check(q)
	virt := s.stats.Propagations - propsBefore
	sp.End(virt)
	wall := time.Since(start).Nanoseconds()
	cacheHit := s.stats.CacheHits > hitsBefore
	if s.hVirt != nil {
		s.hVirt.Observe(virt)
		s.hWall.Observe(wall)
	}
	if s.tracer != nil {
		var t int64
		if s.now != nil {
			t = s.now()
		}
		s.tracer.Emit(obs.Event{
			T:           t,
			Kind:        obs.KindSolverQuery,
			Result:      res.String(),
			VirtCost:    virt,
			WallCost:    wall,
			CacheHit:    cacheHit,
			Constraints: len(q.PC),
			PathSig:     q.PathSig,
		})
	}
	return res, model
}

// check is the uninstrumented core of CheckQuery.
func (s *Solver) check(q Query) (Result, symexpr.Assignment) {
	s.stats.Queries++

	// Canonicalize: sort by the process-independent structural order and
	// dedup. The backend sees the canonical sequence, so its result *and
	// model* are a pure function of the constraint set — the property both
	// cache layers (exact and persistent) rely on.
	var canon []*symexpr.Expr
	sliced := !s.opts.DisableSlicing && q.Base != nil
	if sliced {
		// Slicing is a pure function of (pc, base), so the backend still
		// sees a pure function of the query. The slicer applies the
		// constant filter itself.
		var falseConst bool
		falseConst, canon = s.slicer.slice(q.PC, q.Base)
		if falseConst {
			s.stats.UnsatQueries++
			return Unsat, nil
		}
		if len(canon) == 0 {
			s.stats.SatQueries++
			return Sat, s.slicer.keep(nil)
		}
	} else {
		// Constant-filter: drop constraints that are literally true; a
		// literally false constraint decides the query immediately.
		work := s.work[:0]
		for _, c := range q.PC {
			if c.IsConst() {
				if c.ConstVal() == 0 {
					s.stats.UnsatQueries++
					return Unsat, nil
				}
				continue
			}
			work = append(work, c)
		}
		s.work = work
		if len(work) == 0 {
			s.stats.SatQueries++
			return Sat, symexpr.Assignment{}
		}
		canon = canonicalize(append([]*symexpr.Expr(nil), work...))
	}
	key := canonKey(canon)

	if s.cache != nil {
		// Cache lookups are free on the virtual clock (the cache exists to
		// elide wall time); the span still attributes their wall cost.
		csp := s.spans.Start(obs.SpanCacheLookup)
		if r, m, ok := s.cache.Lookup(key, canon); ok {
			csp.End(0)
			s.stats.CacheHits++
			s.stats.CacheHitsExact++
			if r == Sat {
				s.stats.SatQueries++
				return Sat, s.hitModel(m, sliced)
			}
			s.stats.UnsatQueries++
			return Unsat, nil
		}
		csp.End(0)
	}

	if s.opts.Persist != nil {
		psp := s.spans.Start(obs.SpanPersistLookup)
		if r, m, cost, ok := s.opts.Persist.Lookup(key, canon); ok {
			// Replay the recorded solve cost so the virtual clock advances
			// exactly as on a cold run, and count the query as solved so warm
			// and cold runs agree on every stat except the hit counters. The
			// wall-clock solve is the only thing a persistent hit elides.
			s.stats.CacheHits++
			s.stats.CacheHitsPersist++
			s.stats.Propagations += cost
			psp.End(cost) // the replayed cost is the hit's virtual duration
			if s.cache != nil {
				s.cache.Store(key, canon, r, m)
			}
			if r == Sat {
				s.stats.SatQueries++
				return Sat, s.hitModel(m, sliced)
			}
			s.stats.UnsatQueries++
			return Unsat, nil
		}
		psp.End(0)
	}
	if s.cache != nil || s.opts.Persist != nil {
		s.stats.CacheMisses++
	}

	bsp := s.spans.Start(obs.SpanSolverBlast)
	var res Result
	var model symexpr.Assignment
	var cost Cost
	if s.opts.Faults.Fire(faults.SolverUnknown) {
		res = Unknown
	} else {
		res, model, cost = s.backend.Solve(canon, s.opts.PropBudget)
		s.stats.Propagations += cost.Propagations
		s.stats.Conflicts += cost.Conflicts
		s.stats.ClausesAdded += cost.ClausesAdded
	}
	bsp.End(cost.Propagations)
	if res != Unknown {
		if s.cache != nil {
			s.cache.Store(key, canon, res, model)
		}
		if s.opts.Persist != nil {
			s.opts.Persist.Append(key, canon, res, model, cost.Propagations)
		}
	}
	switch res {
	case Sat:
		s.stats.SatQueries++
		if sliced {
			model = s.slicer.keep(model)
		}
		return Sat, model
	case Unsat:
		s.stats.UnsatQueries++
		return Unsat, nil
	default:
		s.stats.Unknowns++
		return Unknown, nil
	}
}

// hitModel is the assignment of a Sat cache or persistent hit: a fresh map
// of the slicer's kept values with the cached model m copied over it (the
// key sets are disjoint), or a clone of m for an unsliced query. m is owned
// by its layer and is never mutated.
func (s *Solver) hitModel(m symexpr.Assignment, sliced bool) symexpr.Assignment {
	if !sliced {
		return m.Clone()
	}
	out := s.slicer.keep(nil)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// canonicalize sorts the constraint slice by symexpr.Compare — a structural,
// process-independent total order — and drops duplicates (pointer-equal after
// interning). The slice is modified in place; callers pass a fresh copy.
func canonicalize(cs []*symexpr.Expr) []*symexpr.Expr {
	sort.Slice(cs, func(i, j int) bool { return symexpr.Compare(cs[i], cs[j]) < 0 })
	out := cs[:0]
	var prev *symexpr.Expr
	for _, c := range cs {
		if c == prev {
			continue
		}
		prev = c
		out = append(out, c)
	}
	return out
}

// canonKey hashes the canonical constraint sequence. Order-sensitive is fine
// (the sequence is canonical), and the structural per-node hashes make the
// key process-independent, so it doubles as the persistent store's index key.
func canonKey(canon []*symexpr.Expr) uint64 {
	var h uint64 = 0x1234_5678_9abc_def0
	for _, c := range canon {
		h ^= c.Hash()
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

func merge(into, from symexpr.Assignment) symexpr.Assignment {
	if into == nil {
		into = symexpr.Assignment{}
	}
	for k, v := range from {
		if _, ok := into[k]; !ok {
			into[k] = v
		}
	}
	return into
}

// oneshotBackend is the decision procedure behind the cache layers: every
// query is blasted into a CNF of its own and solved from scratch, STP-style.
// It only sees the queries that miss the constant filter, slicing and both
// caches, and it shares its Solver's single-goroutine discipline. It owns one
// satSolver and blaster and resets them after each query, so only their
// capacity carries over; its result, model and cost are a pure function of
// the (canonical) constraint sequence.
type oneshotBackend struct {
	s   *Solver
	sat *satSolver
	bl  *blaster
}

func newOneshotBackend(s *Solver) *oneshotBackend {
	sat := newSatSolver()
	return &oneshotBackend{s: s, sat: sat, bl: newBlaster(sat)}
}

func (b *oneshotBackend) Solve(constraints []*symexpr.Expr, budget int64) (Result, symexpr.Assignment, Cost) {
	res, model := b.solve(constraints, budget)
	sat := b.sat
	cost := Cost{Propagations: sat.propsN, Conflicts: sat.conflicts, ClausesAdded: int64(sat.numClauses)}
	b.bl.reset()
	return res, model, cost
}

func (b *oneshotBackend) solve(constraints []*symexpr.Expr, budget int64) (Result, symexpr.Assignment) {
	sat := b.sat
	sat.budget = budget
	for _, c := range constraints {
		if !b.bl.assertTrue(c) {
			return Unsat, nil
		}
	}
	sp := b.s.spans.Start(obs.SpanSolverSearch)
	props0 := sat.propsN
	res := sat.solve()
	sp.End(sat.propsN - props0)
	switch res {
	case resUnsat:
		return Unsat, nil
	case resUnknown:
		return Unknown, nil
	}
	out := symexpr.Assignment{}
	for v, bits := range b.bl.vars {
		var val uint64
		for i, l := range bits {
			if (sat.assign[l.varIdx()] == assignT) != l.negated() {
				val |= 1 << uint(i)
			}
		}
		out[v] = val
	}
	return Sat, out
}

// Maximize returns the largest value e can take subject to q.PC, found by
// binary search over satisfiability queries. It implements the upper_bound
// API call from Table 1 of the paper. The boolean result is false when even
// the base query is unsatisfiable or the budget ran out.
func (s *Solver) Maximize(e *symexpr.Expr, q Query) (uint64, bool) {
	if e.IsConst() {
		return e.ConstVal(), true
	}
	w := e.Width()
	res, model := s.CheckQuery(q)
	if res != Sat {
		return 0, false
	}
	best := symexpr.Eval(e, merge(model.Clone(), q.Base))
	lo, hi := best, w.Mask()
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		probe := append(append([]*symexpr.Expr(nil), q.PC...),
			symexpr.Ule(symexpr.Const(mid, w), e))
		res, model = s.CheckQuery(Query{PC: probe, PathSig: q.PathSig})
		if res == Sat {
			got := symexpr.Eval(e, model)
			if got < mid {
				got = mid
			}
			best = got
			lo = got
		} else {
			hi = mid - 1
		}
	}
	return best, true
}
