package chef

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"chef/internal/lowlevel"
	"chef/internal/obs"
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
// Trace events follow the same split. Each cell emits into its own
// segment of the tracer (obs.Segment), without locking, and the
// coordinator commits the segments in range order at three points: after
// the session starts, after every epoch's cells have run and after the
// merge. So a sharded run's trace comes epoch by epoch, cells in range
// order within an epoch, and apart from its wall-clock fields it does not
// depend on the worker count either.
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
// the argument. The cells are a sessionSet, which supplies the merge and
// the folded counters (Clock, Stats, SolverStats, CacheStats, Series);
// the sharded session adds the epochs, the router and the mailboxes.
// Methods are not safe for concurrent use.
type ShardedSession struct {
	*sessionSet
	workers int
	cells   []*shardCell

	// Coordinator observability (nil when disabled).
	tracer  obs.Tracer
	spans   *obs.SpanProfiler
	mEpochs *obs.Counter
	mLive   *obs.Gauge
	mStates *obs.Counter
	mNotes  *obs.Counter
	mDups   *obs.Counter
	mDepth  *obs.Histogram
	mMerged *obs.Counter

	ran         bool
	initialDone bool
	spent       int64
	cancelled   bool
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
		workers: workers,
		cells:   make([]*shardCell, ShardSubtrees),
		tracer:  obs.WithSession(opts.Tracer, name),
	}
	if reg := opts.Metrics; reg != nil {
		ss.mEpochs = reg.Counter(obs.MShardEpochs)
		ss.mLive = reg.Gauge(obs.MShardRangesLive)
		ss.mStates = reg.Counter(obs.MShardHandoffs)
		ss.mNotes = reg.Counter(obs.MShardVisitedNotes)
		ss.mDups = reg.Counter(obs.MShardHandoffDups)
		ss.mDepth = reg.Histogram(obs.MShardHandoffDepth)
		ss.mMerged = reg.Counter(obs.MChefTestsMerged)
	}
	if opts.Spans != nil {
		ss.spans = obs.NewSpanProfiler(opts.Metrics, ss.tracer)
	}
	ss.sessionSet = newSessionSet(ShardSubtrees, opts, func(k int) (string, TestProgram, lowlevel.Router) {
		c := &shardCell{
			idx:         k,
			outStates:   make([][]*lowlevel.State, ShardSubtrees),
			outVisited:  make([][]uint64, ShardSubtrees),
			sentVisited: make([]map[uint64]bool, ShardSubtrees),
		}
		for t := range c.sentVisited {
			c.sentVisited[t] = map[uint64]bool{}
		}
		ss.cells[k] = c
		return fmt.Sprintf("%s.s%02d", name, k), prog, c
	})
	for k, c := range ss.cells {
		c.sess = ss.sess[k]
	}
	return ss
}

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
	for _, c := range ss.cells {
		if c.sess.tracer != nil {
			c.sess.tracer.Emit(obs.Event{
				Kind:     obs.KindSessionStart,
				Seed:     c.sess.opts.Seed,
				Strategy: c.sess.opts.Strategy.String(),
			})
		}
	}
	ss.commit()
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
		ParFor(ss.workers, len(order), func(i int) {
			k := order[i]
			ss.runCellEpoch(ctx, ss.cells[k], slice, initial && k == 0)
		})
		ss.initialDone = true
		ss.commit()
		ss.deliver()
		ss.spent = ss.Clock()
		sp.End(ss.spent - before)
		if ss.mEpochs != nil {
			ss.mEpochs.Inc()
		}
	}
	// Every cell finishes like a plain session before the merge folds the
	// counts it publishes.
	for _, c := range ss.cells {
		c.sess.finish(ss.cancelled)
	}
	ss.merge(nil)
	// The coordinator's own count: the merged tests.
	if ss.mMerged != nil {
		ss.mMerged.Add(int64(len(ss.tests)))
	}
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

// Cancelled reports whether RunContext stopped early on a done context.
func (ss *ShardedSession) Cancelled() bool { return ss.cancelled }

// Summary condenses the sharded run: per-cell summaries folded with
// Summary.Add, with the path counts replaced by the cross-range
// deduplicated view (a plain session dedups globally, so the merged
// numbers are the comparable ones).
func (ss *ShardedSession) Summary() Summary {
	sum := ss.sessionSet.Summary()
	sum.HLTests = len(ss.tests)
	sum.HLPaths = len(ss.tests)
	return sum
}
