package chef

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"chef/internal/faults"
	"chef/internal/lowlevel"
	"chef/internal/obs"
	"chef/internal/solver"
)

// Path-space sharding (ROADMAP item 2; docs/DESIGN.md "Path-space
// sharding"): one exploration split across subtree ranges of the decision-
// signature space, so a single big exploration scales with cores the way
// portfolios already do — while staying byte-identical to its own serial
// (1-worker) execution.
//
// The determinism design separates *semantics* from *scheduling*:
//
//   - Semantics live in ShardSubtrees fixed range cells, one per
//     signature prefix, each a full mini-Session (own strategy queue, own
//     visited set, own RNG, own virtual clock, own private in-memory
//     solver cache). Exploration proceeds in BSP epochs: every live cell
//     runs up to a virtual-time slice, forks landing outside a cell's
//     range buffer in per-(source,target) mailboxes, and mailboxes drain
//     at the epoch barrier in canonical order (all visited notes before
//     all states, sources in ascending cell order). Every quantity above
//     is a pure function of (seed, budget, program) — the worker count
//     never appears.
//   - Scheduling is a work queue: each epoch, the live cells, largest
//     pending queue first, are pulled by up to N workers through ParFor.
//     Workers only lend CPU time to cells; they carry no state of their
//     own, and a cell touches nothing another cell writes until the
//     barrier, so which worker runs which cell affects wall-clock time
//     and nothing else.
//
// Warmth is shared where sharing is deterministic: the process-global
// symexpr interner and the persistent cache layer (whose hits replay
// their recorded virtual cost). The in-memory query cache is private to
// each cell's solver: its hits are free, so sharing one would make a
// cell's clock depend on which sibling solved a query first.

const (
	// ShardSubtreeBits fixes the static partition of the decision-signature
	// space: 2^bits subtree ranges, chosen once and independent of the
	// worker count so results cannot depend on it.
	ShardSubtreeBits = 4
	// ShardSubtrees is the resulting number of range cells, and the upper
	// bound on useful shard workers.
	ShardSubtrees = 1 << ShardSubtreeBits
)

// shardOwnerOf returns the index of the range cell owning sig: the cell
// whose index equals sig's top ShardSubtreeBits bits.
func shardOwnerOf(sig uint64) int { return int(sig >> (64 - ShardSubtreeBits)) }

// shardCell is one range cell: a mini-Session confined to its signature
// subtree plus the outgoing mailboxes of the cell's engine. It implements
// lowlevel.Router for its own session's engine.
type shardCell struct {
	idx  int
	sess *Session

	// Per-(source,target) mailboxes, drained at epoch barriers.
	outStates  [][]*lowlevel.State
	outVisited [][]uint64
	// sentVisited dedups trail notes per target: a cell's runs re-walk
	// the same foreign trail prefixes every run, and one note is enough.
	sentVisited []map[uint64]bool
}

// Owns implements lowlevel.Router.
func (c *shardCell) Owns(sig uint64) bool { return shardOwnerOf(sig) == c.idx }

// HandOff implements lowlevel.Router.
func (c *shardCell) HandOff(st *lowlevel.State) {
	t := shardOwnerOf(st.Sig)
	c.outStates[t] = append(c.outStates[t], st)
}

// NoteVisited implements lowlevel.Router.
func (c *shardCell) NoteVisited(sig uint64) {
	t := shardOwnerOf(sig)
	if c.sentVisited[t][sig] {
		return
	}
	c.sentVisited[t][sig] = true
	c.outVisited[t] = append(c.outVisited[t], sig)
}

// ShardedSession explores one symbolic test across ShardSubtrees range
// cells with up to `workers` epoch workers. Results are byte-identical
// for every worker count, including 1; see the package comment above for
// the argument. Methods are not safe for concurrent use.
type ShardedSession struct {
	opts    Options
	name    string
	workers int

	cells     []*shardCell
	childRegs []*obs.Registry

	// Coordinator observability (nil when disabled).
	tracer  obs.Tracer
	spans   *obs.SpanProfiler
	mEpochs *obs.Counter
	mLive   *obs.Gauge
	mStates *obs.Counter
	mNotes  *obs.Counter
	mDups   *obs.Counter
	mDepth  *obs.Histogram

	stallInj *faults.Injector

	ran            bool
	initialDone    bool
	spent          int64
	stalledWorkers int
	cancelled      bool
	tests          []TestCase
	series         []SamplePoint
}

// NewShardedSession builds a sharded exploration of prog. workers bounds
// the epoch worker pool (0 means runtime.GOMAXPROCS(0)); it is clamped to
// [1, ShardSubtrees] and — by construction — never influences results.
func NewShardedSession(prog TestProgram, opts Options, workers int) *ShardedSession {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ShardSubtrees {
		workers = ShardSubtrees
	}
	name := opts.Name
	if name == "" {
		name = "session"
	}
	ss := &ShardedSession{
		opts:    opts,
		name:    name,
		workers: workers,
		tracer:  obs.WithSession(opts.Tracer, name),
	}
	// The coordinator's injector uses the same scope a plain session
	// would, so worker.stall rules address shard workers the way they
	// address portfolio members. Cell injectors get their own scopes.
	if opts.Faults != nil {
		ss.stallInj = opts.Faults.Injector(name)
		ss.stallInj.Instrument(opts.Metrics)
	}
	if reg := opts.Metrics; reg != nil {
		ss.mEpochs = reg.Counter(obs.MShardEpochs)
		ss.mLive = reg.Gauge(obs.MShardRangesLive)
		ss.mStates = reg.Counter(obs.MShardHandoffs)
		ss.mNotes = reg.Counter(obs.MShardVisitedNotes)
		ss.mDups = reg.Counter(obs.MShardHandoffDups)
		ss.mDepth = reg.Histogram(obs.MShardHandoffDepth)
		ss.childRegs = make([]*obs.Registry, ShardSubtrees)
		for i := range ss.childRegs {
			ss.childRegs[i] = obs.NewRegistry()
		}
	}
	if opts.Spans != nil {
		ss.spans = obs.NewSpanProfiler(opts.Metrics, ss.tracer)
	}
	for k := 0; k < ShardSubtrees; k++ {
		cellOpts := opts
		cellOpts.Seed = opts.Seed + int64(k)*104729
		cellOpts.SessionIndex = k
		cellOpts.Name = fmt.Sprintf("%s.s%02d", name, k)
		if ss.childRegs != nil {
			cellOpts.Metrics = ss.childRegs[k]
		}
		if opts.Spans != nil {
			// One profiler per cell: a SpanProfiler serves one goroutine
			// at a time, and a cell's epochs are sequenced by barriers.
			cellOpts.Spans = obs.NewSpanProfiler(cellOpts.Metrics, obs.WithSession(opts.Tracer, cellOpts.Name))
		}
		c := &shardCell{
			idx:         k,
			outStates:   make([][]*lowlevel.State, ShardSubtrees),
			outVisited:  make([][]uint64, ShardSubtrees),
			sentVisited: make([]map[uint64]bool, ShardSubtrees),
		}
		for t := range c.sentVisited {
			c.sentVisited[t] = map[uint64]bool{}
		}
		cellOpts.router = c
		c.sess = NewSession(prog, cellOpts)
		ss.cells = append(ss.cells, c)
	}
	return ss
}

// Workers returns the clamped epoch worker count.
func (ss *ShardedSession) Workers() int { return ss.workers }

// Run explores until the merged virtual-time budget is exhausted or all
// range queues drain, and returns the merged test cases.
func (ss *ShardedSession) Run(budget int64) []TestCase {
	return ss.RunContext(context.Background(), budget)
}

// RunContext is Run with cooperative cancellation, checked between engine
// runs like Session.RunContext. An uncancelled run is byte-identical to
// Run for every worker count.
func (ss *ShardedSession) RunContext(ctx context.Context, budget int64) []TestCase {
	if ctx == nil {
		ctx = context.Background()
	}
	if ss.ran {
		return ss.tests
	}
	ss.ran = true
	defer ss.publish()
	for _, c := range ss.cells {
		if c.sess.tracer != nil {
			c.sess.tracer.Emit(&obs.Event{
				Kind:     obs.KindSessionStart,
				Seed:     c.sess.opts.Seed,
				Strategy: c.sess.opts.Strategy.String(),
			})
		}
	}
	// Worker-level stall injection: a stalled worker never joins the
	// pool. Because semantics are worker-independent, any surviving
	// worker reproduces the full result; only a total stall degrades.
	pool := 0
	for w := 0; w < ss.workers; w++ {
		if ss.stallInj.FireStall(w) {
			ss.stalledWorkers++
			if ss.tracer != nil {
				ss.tracer.Emit(&obs.Event{Kind: obs.KindFault, Site: string(faults.WorkerStall)})
			}
			continue
		}
		pool++
	}
	if pool == 0 {
		if ss.tracer != nil {
			ss.tracer.Emit(&obs.Event{Kind: obs.KindSessionEnd, Status: "stalled"})
		}
		return ss.tests
	}

	for {
		if ctx.Err() != nil {
			ss.cancelled = true
			break
		}
		initial := !ss.initialDone
		order := ss.liveCells(initial)
		if ss.mLive != nil {
			ss.mLive.Set(int64(len(order)))
		}
		if len(order) == 0 || ss.spent >= budget {
			break
		}
		// Epoch slice: half the remaining budget spread over the live
		// cells, floored at one step so every nonempty cell progresses.
		slice := (budget - ss.spent) / int64(2*len(order))
		if slice < 1 {
			slice = 1
		}
		sp := ss.spans.Start(obs.SpanShardEpoch)
		before := ss.spent
		// Cell engines migrate between worker goroutines only across the
		// epoch barrier (ParFor returns after every call), satisfying the
		// Engine ownership contract.
		ParFor(pool, len(order), func(i int) {
			k := order[i]
			ss.runCellEpoch(ctx, ss.cells[k], slice, initial && k == 0)
		})
		ss.initialDone = true
		ss.deliver()
		ss.spent = ss.Clock()
		sp.End(ss.spent - before)
		if ss.mEpochs != nil {
			ss.mEpochs.Inc()
		}
	}
	ss.merge()
	return ss.tests
}

// liveCells returns the cells with pending work, largest queue first and
// ties by index, so the longest cells start earliest in the epoch's work
// queue. The first epoch runs only cell 0, which holds the initial run.
func (ss *ShardedSession) liveCells(initial bool) []int {
	if initial {
		return []int{0}
	}
	pending := make([]int, len(ss.cells))
	var order []int
	for k, c := range ss.cells {
		if pending[k] = c.sess.eng.Pending(); pending[k] > 0 {
			order = append(order, k)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return pending[order[a]] > pending[order[b]] })
	return order
}

// runCellEpoch advances one cell by up to slice virtual time. The work is
// wrapped in a chef.session span on the cell's own profiler: its virtual
// duration is the cell's clock delta, so across all epochs the cell's
// chef.session span total equals its final clock, exactly like a plain
// session.
func (ss *ShardedSession) runCellEpoch(ctx context.Context, c *shardCell, slice int64, initial bool) {
	s := c.sess
	sp := s.spans.Start(obs.SpanChefSession)
	start := s.eng.Clock()
	s.explore(ctx, start+slice, initial)
	sp.End(s.eng.Clock() - start)
}

// deliver drains every mailbox at the epoch barrier, in canonical order:
// targets ascending; per target, all visited notes (sources ascending)
// before all states (sources ascending). Notes-before-states makes the
// note/state race on one signature resolve the same way every run: the
// already-walked path wins and the handed-off state dedups away.
func (ss *ShardedSession) deliver() {
	var states, notes, dups int64
	for t, tc := range ss.cells {
		eng := tc.sess.eng
		depth := int64(0)
		for _, src := range ss.cells {
			for _, sig := range src.outVisited[t] {
				eng.InjectVisited(sig)
				notes++
			}
			src.outVisited[t] = src.outVisited[t][:0]
		}
		for _, src := range ss.cells {
			for _, st := range src.outStates[t] {
				if eng.InjectState(st) {
					states++
				} else {
					dups++
				}
				depth++
			}
			src.outStates[t] = src.outStates[t][:0]
		}
		if depth > 0 && ss.mDepth != nil {
			ss.mDepth.Observe(depth)
		}
	}
	if ss.mStates != nil {
		ss.mStates.Add(states)
		ss.mNotes.Add(notes)
		ss.mDups.Add(dups)
	}
}

// merge gathers per-cell results in canonical range order: tests dedup by
// high-level signature (first range wins, mirroring RunPortfolio), series
// concatenate, every cell finishes like a plain session, and child
// registries fold into the caller's registry.
func (ss *ShardedSession) merge() {
	seen := map[uint64]bool{}
	for _, c := range ss.cells {
		for _, tc := range c.sess.tests {
			if !seen[tc.HLSig] {
				seen[tc.HLSig] = true
				ss.tests = append(ss.tests, tc)
			}
		}
		ss.series = append(ss.series, c.sess.series...)
	}
	for _, c := range ss.cells {
		c.sess.finish(ss.cancelled)
	}
	if ss.opts.Metrics != nil {
		for _, child := range ss.childRegs {
			ss.opts.Metrics.Merge(child)
		}
	}
}

// publish adds the coordinator's end-of-run counts to the registry: the
// stalled workers and the merged test count (zero after a total stall).
func (ss *ShardedSession) publish() {
	if reg := ss.opts.Metrics; reg != nil {
		reg.Counter(obs.MShardStalled).Add(int64(ss.stalledWorkers))
		reg.Counter(obs.MChefTestsMerged).Add(int64(len(ss.tests)))
	}
}

// Tests returns the merged test cases (valid after Run).
func (ss *ShardedSession) Tests() []TestCase { return ss.tests }

// Series returns the per-cell progress samples concatenated in range
// order.
func (ss *ShardedSession) Series() []SamplePoint { return ss.series }

// Cancelled reports whether RunContext stopped early on a done context.
func (ss *ShardedSession) Cancelled() bool { return ss.cancelled }

// Stalled reports whether every shard worker was stalled by fault
// injection, so the run never explored. A partial stall does not degrade:
// the surviving workers reproduce the full result.
func (ss *ShardedSession) Stalled() bool {
	return ss.workers > 0 && ss.stalledWorkers == ss.workers
}

// StalledWorkers returns how many shard workers were lost to worker.stall
// injection.
func (ss *ShardedSession) StalledWorkers() int { return ss.stalledWorkers }

// Clock returns the merged virtual time across all range cells.
func (ss *ShardedSession) Clock() int64 {
	var total int64
	for _, c := range ss.cells {
		total += c.sess.eng.Clock()
	}
	return total
}

// Stats returns the merged engine counters across all range cells, folded
// in range order with Stats.Add.
func (ss *ShardedSession) Stats() lowlevel.Stats {
	var st lowlevel.Stats
	for _, c := range ss.cells {
		st.Add(c.sess.eng.Stats())
	}
	return st
}

// CellStats returns each range cell's engine counters in range order (the
// per-shard view of the degradation invariants).
func (ss *ShardedSession) CellStats() []lowlevel.Stats {
	out := make([]lowlevel.Stats, len(ss.cells))
	for i, c := range ss.cells {
		out[i] = c.sess.eng.Stats()
	}
	return out
}

// SolverStats returns the merged solver counters across all range cells.
func (ss *ShardedSession) SolverStats() solver.Stats {
	var st solver.Stats
	for _, c := range ss.cells {
		st.Add(c.sess.eng.Solver().Stats())
	}
	return st
}

// CacheStats returns the merged in-memory query-cache counters across the
// cells' private caches.
func (ss *ShardedSession) CacheStats() solver.CacheStats {
	var st solver.CacheStats
	for _, c := range ss.cells {
		st.Add(c.sess.eng.Solver().Cache().Stats())
	}
	return st
}

// Summary condenses the sharded run: per-cell summaries folded with
// Summary.Add, with the path counts replaced by the cross-range
// deduplicated view (a plain session dedups globally, so the merged
// numbers are the comparable ones) and stall accounting at worker
// granularity.
func (ss *ShardedSession) Summary() Summary {
	var sum Summary
	for _, c := range ss.cells {
		sum.Add(c.sess.Summary())
	}
	sum.HLTests = len(ss.tests)
	sum.HLPaths = len(ss.tests)
	sum.Stalled = ss.stalledWorkers
	if ss.stallInj != nil {
		sum.FaultsInjected += ss.stallInj.Injected()
	}
	return sum
}
