package lowlevel

import (
	"math"
	"math/rand"

	"chef/internal/obs"
	"chef/internal/solver"
	"chef/internal/symexpr"
)

// State is a pending alternate: a path that forked off an executed run and
// has not been explored yet. The high-level classification fields are filled
// from the machine at fork time and consumed by the CUPA strategies.
type State struct {
	pc  *pcNode
	Sig uint64

	// base holds the concrete inputs of the forking run at the fork. It is
	// the forking machine's own assignment, shared rather than copied: all
	// forks of a run whose inputs are declared before its first branch
	// share one map. A map some state uses as its base is never written:
	// the machine copies its assignment before declaring another input
	// (Machine.setInput), the solver only reads Query.Base, and
	// runStateInner merges the model into a clone.
	base symexpr.Assignment

	// Classification data.
	LLPC       LLPC
	DynHLPC    uint64
	StaticHLPC uint64
	Opcode     uint32
	Depth      int
	ForkWeight float64

	// Divergence expectation: the decision index and orientation this state
	// is supposed to flip when executed.
	flipIdx      int
	flipLLPC     LLPC
	flipTaken    bool
	flipOriented bool

	// retries counts how many times this state's feasibility query came
	// back Unknown and the state was re-queued (see Options.UnknownRetries).
	retries int
}

// Retries returns how many times the state has been re-queued after an
// Unknown feasibility verdict.
func (s *State) Retries() int { return s.retries }

// Strategy selects the next pending state to explore. Implementations are
// not safe for concurrent use.
type Strategy interface {
	// Add enqueues a freshly forked state.
	Add(s *State)
	// Select removes and returns the next state, or nil when empty.
	Select() *State
	// Len returns the number of queued states.
	Len() int
}

// RunStatus classifies how a run terminated.
type RunStatus uint8

// Run outcomes.
const (
	RunCompleted    RunStatus = iota // interpreter finished normally
	RunHang                          // per-run step limit exceeded
	RunAssumeFailed                  // concrete input violated an assumption
	RunEnded                         // guest called end_symbolic
)

func (s RunStatus) String() string {
	switch s {
	case RunCompleted:
		return "completed"
	case RunHang:
		return "hang"
	case RunAssumeFailed:
		return "assume-failed"
	case RunEnded:
		return "ended"
	default:
		return "unknown"
	}
}

// RunInfo summarizes one concrete run of the interpreter.
type RunInfo struct {
	Status   RunStatus
	Steps    int64
	Input    symexpr.Assignment
	Diverged bool
	Depth    int // symbolic decisions taken
}

// Options configure the engine.
type Options struct {
	// StepLimit caps virtual steps per run; exceeding it is a hang
	// (the paper's 60-second per-path timeout). Default 1 << 20.
	StepLimit int64
	// SolverOptions configure the constraint solver.
	SolverOptions solver.Options
	// ForkWeightDecay is the p of §3.4 (default 0.75).
	ForkWeightDecay float64
	// UnknownRetries bounds how many times a state whose feasibility query
	// came back Unknown (solver budget exhausted) is re-queued before being
	// abandoned. 0 means the default (3); negative disables re-queueing, so
	// the first Unknown abandons the state immediately.
	UnknownRetries int
	// Metrics, when non-nil, receives the per-LLPC fork counts as they
	// happen and, from Publish, the engine counters and the pending-states
	// gauge. Observation-only: it never affects exploration.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives structured exploration events (forks,
	// run ends). Disabled tracing costs one nil-check per site.
	Tracer obs.Tracer
	// Spans, when non-nil, profiles the engine's layers (engine.run spans,
	// with the solver's spans nested inside). Single-goroutine, like the
	// engine itself. Observation-only.
	Spans *obs.SpanProfiler
	// Router, when non-nil, restricts this engine to its own signature
	// range: alternates and trail marks outside it are handed off instead
	// of being queued or recorded locally (path-space sharding).
	Router Router
}

// Router partitions the decision-signature space across sibling engines
// (path-space sharding, see internal/chef's ShardedSession). When an
// engine has a router, alternates and trail signatures outside its own
// range are handed off instead of entering the local visited set or
// strategy queue; the owning engine receives them via InjectState /
// InjectVisited at an epoch barrier. Implementations are called only from
// the engine's own goroutine and need no synchronization of their own.
type Router interface {
	// Owns reports whether sig belongs to this engine's range.
	Owns(sig uint64) bool
	// HandOff buffers a state whose signature another engine owns.
	HandOff(st *State)
	// NoteVisited buffers a trail signature another engine owns.
	NoteVisited(sig uint64)
}

// defaultUnknownRetries is the per-state retry budget for Unknown verdicts.
const defaultUnknownRetries = 3

func (o *Options) fill() {
	if o.StepLimit == 0 {
		o.StepLimit = 1 << 20
	}
	if o.ForkWeightDecay == 0 {
		o.ForkWeightDecay = 0.75
	}
	switch {
	case o.UnknownRetries == 0:
		o.UnknownRetries = defaultUnknownRetries
	case o.UnknownRetries < 0:
		o.UnknownRetries = 0
	}
}

// Stats counts engine-level events. Engine.Stats returns it by value — a
// point-in-time snapshot that does not track later engine progress; callers
// that want fresh numbers re-snapshot, and aggregators combine snapshots with
// Add rather than summing fields by hand.
type Stats struct {
	Runs          int64
	LLPaths       int64 // completed low-level paths (test cases at LL granularity)
	Hangs         int64
	AssumeFails   int64
	Forks         int64
	DupStates     int64 // alternates skipped because their path was seen
	UnsatStates   int64
	UnknownStates int64
	// Degradation accounting: every Unknown verdict either re-queues the
	// state for retry or abandons it, so
	// UnknownStates == RequeuedStates + AbandonedStates always holds.
	RequeuedStates  int64
	AbandonedStates int64
	Divergences     int64
	// HandedOff counts alternates routed to a sibling engine's range
	// instead of being queued locally (0 without a Router).
	HandedOff int64
}

// Add folds another snapshot into s, field by field. It is the merge helper
// for aggregating per-session snapshots (portfolio members, harness cells).
func (s *Stats) Add(o Stats) {
	s.Runs += o.Runs
	s.LLPaths += o.LLPaths
	s.Hangs += o.Hangs
	s.AssumeFails += o.AssumeFails
	s.Forks += o.Forks
	s.DupStates += o.DupStates
	s.UnsatStates += o.UnsatStates
	s.UnknownStates += o.UnknownStates
	s.RequeuedStates += o.RequeuedStates
	s.AbandonedStates += o.AbandonedStates
	s.Divergences += o.Divergences
	s.HandedOff += o.HandedOff
}

// Program is the entry point the CHEF layer hands to the engine: one full
// concrete+symbolic run of the interpreter over the given machine.
type Program func(m *Machine)

type concretizeKey struct {
	sig  uint64
	llpc LLPC
}

// Engine drives concolic exploration of a Program.
//
// Concurrency contract: an Engine is single-owner. All methods — including
// the read accessors Stats, Clock, Pending and Solver, which touch
// the same unsynchronized fields the exploration loop mutates — must be
// called from the goroutine currently driving the engine. Ownership may
// move between goroutines only across a happens-before edge (channel,
// WaitGroup, mutex), which is how the sharded coordinator migrates cells
// between epoch workers.
type Engine struct {
	opts     Options
	solver   *solver.Solver
	strategy Strategy
	prog     Program
	router   Router

	visited    map[uint64]bool // explored or queued decision signatures
	seenValues map[concretizeKey]map[uint64]bool

	clock   int64 // virtual time: steps + solver propagation cost
	stats   Stats
	pcBuf   []*symexpr.Expr // path condition of the query being checked
	pcNodes []*pcNode       // pcNodes[i] is the node that wrote pcBuf[i]

	// Observability (all nil when disabled; observation-only). The event
	// counts live in stats and reach the registry through Publish; only
	// the per-LLPC fork counts, which no snapshot holds, are written live.
	tracer    obs.Tracer
	spans     *obs.SpanProfiler
	metrics   *obs.Registry
	mForkLLPC *obs.CounterVec

	// Per-run fork-weight grouping.
	group     []*State
	groupLLPC LLPC

	// OnFork, when set, is invoked for every registered alternate state
	// before it is handed to the strategy. The CHEF layer uses it to attach
	// high-level classification data.
	OnFork func(*State)
}

// NewEngine builds an engine exploring prog with the given strategy.
func NewEngine(prog Program, strategy Strategy, opts Options) *Engine {
	opts.fill()
	// The solver inherits the engine's observability sinks unless the caller
	// wired its own.
	so := opts.SolverOptions
	if so.Metrics == nil {
		so.Metrics = opts.Metrics
	}
	if so.Tracer == nil {
		so.Tracer = opts.Tracer
	}
	if so.Spans == nil {
		so.Spans = opts.Spans
	}
	e := &Engine{
		opts:       opts,
		solver:     solver.New(so),
		strategy:   strategy,
		prog:       prog,
		router:     opts.Router,
		visited:    map[uint64]bool{},
		seenValues: map[concretizeKey]map[uint64]bool{},
		tracer:     opts.Tracer,
		spans:      opts.Spans,
		metrics:    opts.Metrics,
	}
	if reg := opts.Metrics; reg != nil {
		e.mForkLLPC = reg.CounterVec(obs.MForksByLLPC)
	}
	if so.Tracer != nil {
		// Stamp solver events with the engine's virtual clock.
		e.solver.Attach(solver.Instruments{Now: func() int64 { return e.clock }})
	}
	return e
}

// Solver exposes the engine's constraint solver (for stats and the CHEF
// layer's upper_bound needs).
func (e *Engine) Solver() *solver.Solver { return e.solver }

// Clock returns the virtual time consumed so far.
func (e *Engine) Clock() int64 { return e.clock }

// Stats returns a value snapshot of the engine counters, taken at call time.
// The copy does not track later engine progress (staleness-by-copy is the
// intended semantics); re-snapshot for fresh numbers and combine snapshots
// with Stats.Add.
func (e *Engine) Stats() Stats { return e.stats }

// Pending returns the number of queued states.
func (e *Engine) Pending() int { return e.strategy.Len() }

// Publish adds the engine counters to the engine's metrics registry, sets
// the pending-states gauge to the queue length, and publishes the solver's
// counters to the solver's registry. The owner calls it once, when
// exploration ends; each count has its Stats field as its only owner.
func (e *Engine) Publish() {
	if reg := e.metrics; reg != nil {
		st := e.stats
		reg.Counter(obs.MRuns).Add(st.Runs)
		reg.Counter(obs.MStatesCompleted).Add(st.Runs)
		reg.Counter(obs.MHangs).Add(st.Hangs)
		reg.Counter(obs.MLLPaths).Add(st.LLPaths)
		reg.Counter(obs.MForks).Add(st.Forks)
		reg.Counter(obs.MDupStates).Add(st.DupStates)
		reg.Counter(obs.MUnsatStates).Add(st.UnsatStates)
		reg.Counter(obs.MUnknownStates).Add(st.UnknownStates)
		reg.Counter(obs.MStatesRequeued).Add(st.RequeuedStates)
		reg.Counter(obs.MStatesAbandoned).Add(st.AbandonedStates)
		reg.Counter(obs.MDivergences).Add(st.Divergences)
		reg.Gauge(obs.MStatesPending).Set(int64(e.strategy.Len()))
	}
	e.solver.Publish()
}

func (e *Engine) markVisited(sig uint64) {
	if e.router != nil && !e.router.Owns(sig) {
		e.router.NoteVisited(sig)
		return
	}
	e.visited[sig] = true
}

// InjectVisited records a trail signature observed by a sibling engine.
// Sharding only: called by the coordinator at an epoch barrier, before
// InjectState deliveries, so a noted path suppresses a later state with
// the same signature deterministically.
func (e *Engine) InjectVisited(sig uint64) { e.visited[sig] = true }

// InjectState delivers a state handed off by a sibling engine whose fork
// landed in this engine's range. It applies the same visited-signature
// dedup a local fork gets and reports whether the state was queued.
// Sharding only: called by the coordinator at an epoch barrier.
func (e *Engine) InjectState(st *State) bool {
	if e.visited[st.Sig] {
		e.stats.DupStates++
		return false
	}
	e.visited[st.Sig] = true
	e.strategy.Add(st)
	return true
}

func (e *Engine) chargeSolver(propsBefore int64) {
	e.clock += e.solver.Stats().Propagations - propsBefore
}

func (e *Engine) registerAlternate(m *Machine, llpc LLPC, alt *symexpr.Expr, altSig uint64, flipTaken, oriented bool) {
	e.stats.Forks++
	if e.mForkLLPC != nil {
		e.mForkLLPC.At(uint64(llpc)).Inc()
	}
	if e.tracer != nil {
		decision := "exclude"
		if oriented {
			if flipTaken {
				decision = "flip-taken"
			} else {
				decision = "flip-untaken"
			}
		}
		e.tracer.Emit(obs.Event{
			T:        e.clock + m.steps,
			Kind:     obs.KindLLFork,
			LLPC:     uint64(llpc),
			HLPC:     m.StaticHLPC,
			DynHLPC:  m.DynHLPC,
			Opcode:   m.Opcode,
			Decision: decision,
			Depth:    m.nDecisions,
		})
	}
	routed := e.router != nil && !e.router.Owns(altSig)
	if !routed {
		if e.visited[altSig] {
			e.stats.DupStates++
			return
		}
		e.visited[altSig] = true
	}
	st := &State{
		pc:           &pcNode{parent: m.pc, c: alt, depth: depthOf(m.pc) + 1},
		base:         m.assign,
		Sig:          altSig,
		LLPC:         llpc,
		DynHLPC:      m.DynHLPC,
		StaticHLPC:   m.StaticHLPC,
		Opcode:       m.Opcode,
		Depth:        m.nDecisions,
		ForkWeight:   1,
		flipIdx:      m.nDecisions,
		flipLLPC:     llpc,
		flipTaken:    flipTaken,
		flipOriented: oriented,
	}
	m.shared = true
	// Fork-weight grouping: consecutive forks at the same LLPC within a run
	// form a group whose members get weights p^(n-1) ... p^0.
	if llpc == e.groupLLPC && len(e.group) > 0 {
		e.group = append(e.group, st)
	} else {
		e.finalizeGroup()
		e.groupLLPC = llpc
		e.group = []*State{st}
	}
	if e.OnFork != nil {
		e.OnFork(st)
	}
	if routed {
		// The owner performs the visited-signature dedup at injection; the
		// state still joined this run's fork-weight group above, so its
		// weight is final before the barrier delivers it.
		e.stats.HandedOff++
		e.router.HandOff(st)
		return
	}
	e.strategy.Add(st)
}

// finalizeGroup assigns fork weights p^(n-1-i) to the current group.
func (e *Engine) finalizeGroup() {
	n := len(e.group)
	p := e.opts.ForkWeightDecay
	for i, st := range e.group {
		st.ForkWeight = math.Pow(p, float64(n-1-i))
	}
	e.group = nil
	e.groupLLPC = 0
}

// runWith executes the program under the given input and returns the run
// summary. flip describes the decision the run is expected to invert (nil
// for the initial run).
func (e *Engine) runWith(input symexpr.Assignment, flip *State) *RunInfo {
	m := &Machine{
		eng:       e,
		stepLimit: e.opts.StepLimit,
		assign:    input,
		expectIdx: -1,
	}
	if flip != nil {
		m.expectIdx = flip.flipIdx
		m.expectLLPC = flip.flipLLPC
		m.expectTaken = flip.flipTaken
		m.expectOriented = flip.flipOriented
	}
	info := &RunInfo{Status: RunCompleted}
	e.stats.Runs++
	func() {
		defer func() {
			r := recover()
			switch r {
			case nil:
			case errStepLimit:
				info.Status = RunHang
				e.stats.Hangs++
			case errAssumeFail:
				info.Status = RunAssumeFailed
				e.stats.AssumeFails++
			case errEndSymbolic:
				info.Status = RunEnded
			default:
				panic(r)
			}
		}()
		e.prog(m)
	}()
	e.finalizeGroup()
	info.Steps = m.steps
	info.Input = m.assign
	info.Depth = m.nDecisions
	e.clock += m.steps
	if flip != nil {
		// Divergence: the run never reached its flip decision index, or
		// branched at a different site there.
		if m.diverged || m.nDecisions <= flip.flipIdx {
			info.Diverged = true
			e.stats.Divergences++
		}
	}
	if info.Status != RunAssumeFailed {
		e.stats.LLPaths++
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			T:        e.clock,
			Kind:     obs.KindRunEnd,
			Status:   info.Status.String(),
			Steps:    info.Steps,
			Depth:    info.Depth,
			Diverged: info.Diverged,
		})
	}
	return info
}

// RunInitial performs the first run under default inputs.
func (e *Engine) RunInitial() *RunInfo {
	sp := e.spans.Start(obs.SpanEngineRun)
	c0 := e.clock
	info := e.runWith(symexpr.Assignment{}, nil)
	sp.End(e.clock - c0)
	return info
}

// SelectAndRun picks the next pending state, synthesizes an input for it and
// executes it. It returns (nil, false) when no pending states remain,
// (nil, true) when a state was discarded as infeasible, and (info, true)
// for an executed run.
func (e *Engine) SelectAndRun() (*RunInfo, bool) {
	st := e.strategy.Select()
	if st == nil {
		return nil, false
	}
	return e.runState(st), true
}

// fillPC loads n's path condition, root first, into pcBuf and returns it.
// pcNodes are persistent, so a node already in place at its depth brings
// its ancestors with it: the walk up from n stops there, and a query costs
// the constraints below its common prefix with the previous one. Entries
// past the loaded depth are cleared, or a stale deeper node could match a
// later walk after its ancestors were overwritten.
func (e *Engine) fillPC(n *pcNode) []*symexpr.Expr {
	d := depthOf(n)
	if d < len(e.pcNodes) {
		clear(e.pcNodes[d:])
	}
	if d > cap(e.pcNodes) {
		e.pcNodes = append(e.pcNodes, make([]*pcNode, d-len(e.pcNodes))...)
	}
	if d > cap(e.pcBuf) {
		e.pcBuf = append(e.pcBuf, make([]*symexpr.Expr, d-len(e.pcBuf))...)
	}
	e.pcNodes, e.pcBuf = e.pcNodes[:d], e.pcBuf[:d]
	for p := n; p != nil && e.pcNodes[p.depth-1] != p; p = p.parent {
		e.pcNodes[p.depth-1] = p
		e.pcBuf[p.depth-1] = p.c
	}
	return e.pcBuf
}

// runState is wrapped in an engine.run span: its virtual duration is the
// clock delta across the feasibility check plus the concrete run, so the
// span's self time is exactly the interpreter-step cost (the nested
// solver.check spans account for the propagation cost).
func (e *Engine) runState(st *State) *RunInfo {
	sp := e.spans.Start(obs.SpanEngineRun)
	c0 := e.clock
	info := e.runStateInner(st)
	sp.End(e.clock - c0)
	return info
}

func (e *Engine) runStateInner(st *State) *RunInfo {
	before := e.solver.Stats().Propagations
	// The path condition is passed in path order (root first) with the
	// state's trail signature: the solver's slicer keeps the last query and
	// compares pointer prefixes, so consecutive queries that share a path
	// prefix cost only what changed. The solver copies whatever it keeps,
	// so one buffer serves every query.
	res, model := e.solver.CheckQuery(solver.Query{PC: e.fillPC(st.pc), Base: st.base, PathSig: st.Sig})
	e.chargeSolver(before)
	switch res {
	case solver.Unsat:
		e.stats.UnsatStates++
		return nil
	case solver.Unknown:
		// A budget miss is transient: re-queue the state for a bounded
		// number of retries instead of silently dropping the path. Unknown
		// results are never cached, so a retry reaches the SAT core again
		// and succeeds once the budget recovers.
		e.stats.UnknownStates++
		if st.retries < e.opts.UnknownRetries {
			st.retries++
			e.stats.RequeuedStates++
			e.strategy.Add(st)
			if e.tracer != nil {
				e.tracer.Emit(obs.Event{
					T:       e.clock,
					Kind:    obs.KindStateRequeue,
					LLPC:    uint64(st.LLPC),
					Depth:   st.Depth,
					Retries: st.retries,
				})
			}
			return nil
		}
		// Final abandonment: release the visited signature so a later fork
		// at the same site can re-register the path. Coverage is then
		// under-reported until that happens — never silently lost forever.
		delete(e.visited, st.Sig)
		e.stats.AbandonedStates++
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{
				T:       e.clock,
				Kind:    obs.KindStateAbandon,
				LLPC:    uint64(st.LLPC),
				Depth:   st.Depth,
				Retries: st.retries,
			})
		}
		return nil
	}
	// Merge the model over the forking run's concrete inputs so unconstrained
	// variables keep their previous values.
	input := st.base.Clone()
	for k, v := range model {
		input[k] = v
	}
	return e.runWith(input, st)
}

// RandomStrategy is the baseline of §6.3: uniform random selection among all
// pending states.
type RandomStrategy struct {
	rng    *rand.Rand
	states []*State
}

// NewRandomStrategy builds the baseline strategy.
func NewRandomStrategy(rng *rand.Rand) *RandomStrategy {
	return &RandomStrategy{rng: rng}
}

// Add implements Strategy.
func (r *RandomStrategy) Add(s *State) { r.states = append(r.states, s) }

// Select implements Strategy.
func (r *RandomStrategy) Select() *State {
	n := len(r.states)
	if n == 0 {
		return nil
	}
	i := r.rng.Intn(n)
	s := r.states[i]
	r.states[i] = r.states[n-1]
	r.states = r.states[:n-1]
	return s
}

// Len implements Strategy.
func (r *RandomStrategy) Len() int { return len(r.states) }

// DFSStrategy explores deepest-first (a stack).
type DFSStrategy struct{ states []*State }

// NewDFSStrategy builds a depth-first strategy.
func NewDFSStrategy() *DFSStrategy { return &DFSStrategy{} }

// Add implements Strategy.
func (d *DFSStrategy) Add(s *State) { d.states = append(d.states, s) }

// Select implements Strategy.
func (d *DFSStrategy) Select() *State {
	n := len(d.states)
	if n == 0 {
		return nil
	}
	s := d.states[n-1]
	d.states = d.states[:n-1]
	return s
}

// Len implements Strategy.
func (d *DFSStrategy) Len() int { return len(d.states) }

// BFSStrategy explores shallowest-first (a queue).
type BFSStrategy struct{ states []*State }

// NewBFSStrategy builds a breadth-first strategy.
func NewBFSStrategy() *BFSStrategy { return &BFSStrategy{} }

// Add implements Strategy.
func (b *BFSStrategy) Add(s *State) { b.states = append(b.states, s) }

// Select implements Strategy.
func (b *BFSStrategy) Select() *State {
	if len(b.states) == 0 {
		return nil
	}
	s := b.states[0]
	b.states = b.states[1:]
	return s
}

// Len implements Strategy.
func (b *BFSStrategy) Len() int { return len(b.states) }
