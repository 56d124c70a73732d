// Package chef implements the CHEF platform of the paper: it turns an
// instrumented interpreter (packaged as a Program over the guest API) into a
// symbolic execution engine for the interpreter's target language.
//
// The package provides:
//   - the guest API of Table 1 (log_pc, make_symbolic, assume, concretize,
//     upper_bound, is_symbolic, start/end_symbolic) via Ctx;
//   - the high-level execution tree and dynamically discovered high-level
//     CFG, including the branching-opcode inference of §3.4;
//   - the session loop that drives the low-level engine under a virtual-time
//     budget and distills unique high-level paths into test cases.
package chef

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"chef/internal/cupa"
	"chef/internal/faults"
	"chef/internal/lowlevel"
	"chef/internal/obs"
	"chef/internal/solver"
	"chef/internal/symexpr"
)

// HLPC is a high-level program counter: an opaque identifier of a statement
// or bytecode instruction of the target program, as reported by the
// interpreter through log_pc.
type HLPC = uint64

// StrategyKind selects the state-selection strategy of a session.
type StrategyKind uint8

// Available strategies. The four configurations of §6.3 are
// StrategyRandom (baseline) and the two CUPA instantiations.
const (
	StrategyRandom StrategyKind = iota
	StrategyCUPAPath
	StrategyCUPACoverage
	StrategyDFS
	StrategyBFS
)

func (k StrategyKind) String() string {
	switch k {
	case StrategyRandom:
		return "random"
	case StrategyCUPAPath:
		return "cupa-path"
	case StrategyCUPACoverage:
		return "cupa-coverage"
	case StrategyDFS:
		return "dfs"
	case StrategyBFS:
		return "bfs"
	default:
		return "unknown"
	}
}

// TestProgram is a symbolic test packaged for CHEF: one full run of the
// interpreter over the target program, reading symbolic inputs and reporting
// high-level locations through the Ctx guest API.
type TestProgram func(ctx *Ctx)

// Options configure a session.
type Options struct {
	Strategy StrategyKind
	// StrategyFactory, when non-nil, overrides Strategy with a custom
	// state-selection strategy (used by the ablation benches to build CUPA
	// variants). It receives the session's RNG and discovered CFG.
	StrategyFactory func(rng *rand.Rand, cfg *CFG) lowlevel.Strategy
	// Seed drives all randomized decisions of the session.
	Seed int64
	// StepLimit is the per-run hang threshold (the paper's 60 s timeout).
	StepLimit int64
	// SolverOptions are passed through to the constraint solver.
	SolverOptions solver.Options
	// ForkWeightDecay is the p of §3.4; 0 means the paper's 0.75.
	ForkWeightDecay float64
	// Parallel bounds the worker count of multi-session drivers such as
	// RunPortfolio; 0 means runtime.GOMAXPROCS(0), 1 forces serial
	// execution. A single Session is always confined to one goroutine.
	Parallel int
	// Metrics, when non-nil, receives the session's counters, gauges and
	// latency histograms (see internal/obs for the metric names). Sharing one
	// registry across sessions is safe (all cells are atomics); multi-session
	// drivers instead give each session a child registry and aggregate with
	// Registry.Merge.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives structured JSONL exploration events from
	// every layer (session lifecycle, forks, solver queries, CUPA picks,
	// test-case emissions). With a nil tracer the hot path pays a single
	// nil-check per site. Observation-only: a traced run's engine output is
	// byte-identical to an untraced one.
	Tracer obs.Tracer
	// Spans, when non-nil, receives hierarchical profiler spans from every
	// layer of this session (chef.session → engine.run → solver.check →
	// blast/cache/persist). A SpanProfiler serves one goroutine, so
	// multi-session drivers build one per session rather than sharing.
	// Observation-only, like Tracer.
	Spans *obs.SpanProfiler
	// Name labels this session's trace events (multi-session drivers set it
	// to the member/cell name).
	Name string
	// Faults, when non-nil, is the fault-injection plan for this run (see
	// internal/faults). The session derives a deterministic injector scoped
	// by Name and threads it into its solver; worker.stall rules match
	// SessionIndex. nil disables injection entirely.
	Faults *faults.Plan
	// SessionIndex identifies this session among its siblings (portfolio
	// member or harness cell index); worker.stall fault rules match on it.
	SessionIndex int
	// router, when non-nil, confines this session's engine to its own
	// signature range (path-space sharding). Only ShardedSession sets it;
	// it is unexported because a routed session is only meaningful as a
	// range cell under a coordinator that delivers the handoffs.
	router lowlevel.Router
}

// TestCase is one generated high-level test case: a concrete input
// assignment that drives the target program down a distinct high-level path.
type TestCase struct {
	Input    symexpr.Assignment
	HLSig    uint64 // signature of the high-level path
	HLLen    int    // number of high-level instructions executed
	Status   lowlevel.RunStatus
	Result   string // interpreter-reported outcome ("ok", "exception:...", ...)
	VirtTime int64  // virtual time at which the test was generated
}

// SamplePoint records exploration progress for the time-series analyses
// (Fig. 10).
type SamplePoint struct {
	VirtTime int64
	LLPaths  int64
	HLPaths  int64
}

// Session is one symbolic execution run of a target program.
type Session struct {
	opts Options
	prog TestProgram
	eng  *lowlevel.Engine
	rng  *rand.Rand

	tree []hlNode // high-level execution tree, indexed by node ID
	cfg  *CFG

	hlPaths map[uint64]bool
	tests   []TestCase
	series  []SamplePoint

	cur *Ctx // context of the run in progress

	// Fault injection (nil when disabled).
	faults  *faults.Injector
	stalled bool

	// cancelled records that RunContext stopped early because its context
	// was done; the tests generated so far remain valid.
	cancelled bool
	// ran makes RunContext run, and publish its counts, once.
	ran bool

	// Observability (nil when disabled).
	tracer  obs.Tracer
	spans   *obs.SpanProfiler
	metrics *obs.Registry
	mLogPC  *obs.Counter
}

// NewSession builds a session for the given symbolic test.
func NewSession(prog TestProgram, opts Options) *Session {
	// Derive the session's fault injector before the options are captured:
	// its decisions are a pure function of (plan seed, scope, occurrence
	// index), so sibling sessions fault independently of scheduling.
	var inj *faults.Injector
	if opts.Faults != nil {
		scope := opts.Name
		if scope == "" {
			scope = "session"
		}
		inj = opts.Faults.Injector(scope)
		inj.Instrument(opts.Metrics)
		opts.SolverOptions.Faults = inj
	}
	s := &Session{
		opts:    opts,
		prog:    prog,
		rng:     rand.New(rand.NewSource(opts.Seed ^ 0x5eed)),
		tree:    []hlNode{{}}, // node 0 is the root
		cfg:     NewCFG(),
		hlPaths: map[uint64]bool{},
		faults:  inj,
		tracer:  obs.WithSession(opts.Tracer, opts.Name),
		spans:   opts.Spans,
		metrics: opts.Metrics,
	}
	if s.metrics != nil {
		s.mLogPC = s.metrics.Counter(obs.MChefLogPC)
	}
	var strat lowlevel.Strategy
	if opts.StrategyFactory != nil {
		strat = opts.StrategyFactory(s.rng, s.cfg)
	} else {
		switch opts.Strategy {
		case StrategyCUPAPath:
			strat = cupa.NewPathOptimized(s.rng)
		case StrategyCUPACoverage:
			strat = cupa.NewCoverageOptimized(s.rng, s.cfg.Distance)
		case StrategyDFS:
			strat = lowlevel.NewDFSStrategy()
		case StrategyBFS:
			strat = lowlevel.NewBFSStrategy()
		default:
			strat = lowlevel.NewRandomStrategy(s.rng)
		}
	}
	s.eng = lowlevel.NewEngine(s.runOnce, strat, lowlevel.Options{
		StepLimit:       opts.StepLimit,
		Seed:            opts.Seed,
		SolverOptions:   opts.SolverOptions,
		ForkWeightDecay: opts.ForkWeightDecay,
		Metrics:         opts.Metrics,
		Tracer:          s.tracer,
		Spans:           opts.Spans,
		Router:          opts.router,
	})
	// CUPA-based strategies additionally report per-class selection counts.
	if cs, ok := strat.(*cupa.Strategy); ok && (s.metrics != nil || s.tracer != nil) {
		cs.Instrument(s.metrics, s.tracer, s.eng.Clock)
	}
	return s
}

// runOnce adapts the symbolic test to the low-level engine's Program type.
func (s *Session) runOnce(m *lowlevel.Machine) {
	ctx := &Ctx{M: m, s: s}
	s.cur = ctx
	s.prog(ctx)
}

// Run explores until the virtual-time budget is exhausted or the state queue
// drains, and returns the generated test cases. It is RunContext with a
// background context: the two are byte-identical for uncancelled runs.
func (s *Session) Run(budget int64) []TestCase {
	return s.RunContext(context.Background(), budget)
}

// RunContext is Run with cooperative cancellation: the context is checked
// between engine runs (each bounded by StepLimit virtual steps), so a
// cancelled exploration stops promptly — after at most one more run — and
// returns the test cases generated so far. Cancellation is observation-safe:
// it never alters the tests produced before the cancellation point, and a
// run with an uncancelled context is byte-identical to Run. A session runs
// once; later calls return the tests of the first.
func (s *Session) RunContext(ctx context.Context, budget int64) []TestCase {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.ran {
		return s.tests
	}
	s.ran = true
	// The whole exploration is one chef.session span; its virtual duration
	// is the engine clock, which only advances inside nested engine.run
	// spans, so the session's self time is zero by construction.
	sp := s.spans.Start(obs.SpanChefSession)
	defer func() { sp.End(s.eng.Clock()) }()
	if s.tracer != nil {
		s.tracer.Emit(&obs.Event{
			Kind:     obs.KindSessionStart,
			Seed:     s.opts.Seed,
			Strategy: s.opts.Strategy.String(),
		})
	}
	// A stalled worker never starts exploring: it terminates cleanly with
	// zero tests so a portfolio or harness degrades to the surviving
	// members instead of wedging or miscounting.
	if s.faults.FireStall(s.opts.SessionIndex) {
		s.stalled = true
		if s.tracer != nil {
			s.tracer.Emit(&obs.Event{Kind: obs.KindFault, Site: string(faults.WorkerStall)})
		}
		s.finish(false)
		return s.tests
	}
	s.cancelled = s.explore(ctx, budget, true)
	s.finish(s.cancelled)
	return s.tests
}

// explore advances the engine until its clock reaches until, its queue
// drains or ctx is done, making the initial run first when initial is set.
// It reports whether ctx stopped it. A plain session explores once; a shard
// cell explores once per epoch.
func (s *Session) explore(ctx context.Context, until int64, initial bool) (cancelled bool) {
	if initial {
		if ctx.Err() != nil {
			return true
		}
		s.finishRun(s.eng.RunInitial())
	}
	for s.eng.Clock() < until {
		if ctx.Err() != nil {
			return true
		}
		info, more := s.eng.SelectAndRun()
		if !more {
			break
		}
		if info != nil {
			s.finishRun(info)
		}
	}
	return false
}

// finish ends the session: it emits the session-end event, with status
// "stalled" or "cancelled" when the session ended that way, then publishes
// the session's counts and the engine's to the registry. The counts are
// published once, here, from the session's own state; nothing increments
// them while the session runs.
func (s *Session) finish(cancelled bool) {
	var status string
	switch {
	case s.stalled:
		status = "stalled"
	case cancelled:
		status = "cancelled"
	}
	if s.tracer != nil {
		s.tracer.Emit(&obs.Event{
			T:       s.eng.Clock(),
			Kind:    obs.KindSessionEnd,
			Status:  status,
			Tests:   len(s.tests),
			HLPaths: len(s.hlPaths),
			LLPaths: s.eng.Stats().LLPaths,
		})
	}
	if reg := s.metrics; reg != nil {
		var stalled int64
		if s.stalled {
			stalled = 1
		}
		reg.Counter(obs.MChefTests).Add(int64(len(s.tests)))
		reg.Counter(obs.MChefHLPaths).Add(int64(len(s.hlPaths)))
		reg.Counter(obs.MSessionsStalled).Add(stalled)
	}
	s.eng.Publish()
}

// Cancelled reports whether RunContext stopped early because its context was
// done.
func (s *Session) Cancelled() bool { return s.cancelled }

func (s *Session) finishRun(info *lowlevel.RunInfo) {
	ctx := s.cur
	s.cur = nil
	if info.Status == lowlevel.RunAssumeFailed {
		s.sample()
		return
	}
	if ctx != nil && !s.hlPaths[ctx.hlSig] {
		s.hlPaths[ctx.hlSig] = true
		s.tests = append(s.tests, TestCase{
			Input:    info.Input.Clone(),
			HLSig:    ctx.hlSig,
			HLLen:    ctx.hlLen,
			Status:   info.Status,
			Result:   ctx.result,
			VirtTime: s.eng.Clock(),
		})
		if s.tracer != nil {
			s.tracer.Emit(&obs.Event{
				T:      s.eng.Clock(),
				Kind:   obs.KindTestCase,
				HLLen:  ctx.hlLen,
				Sig:    fmt.Sprintf("%016x", ctx.hlSig),
				Status: info.Status.String(),
				Result: ctx.result,
				Tests:  len(s.tests),
			})
		}
	}
	s.sample()
}

func (s *Session) sample() {
	s.series = append(s.series, SamplePoint{
		VirtTime: s.eng.Clock(),
		LLPaths:  s.eng.Stats().LLPaths,
		HLPaths:  int64(len(s.hlPaths)),
	})
}

// Tests returns the generated test cases so far.
func (s *Session) Tests() []TestCase { return s.tests }

// Series returns the exploration progress samples.
func (s *Session) Series() []SamplePoint { return s.series }

// HLPathCount returns the number of distinct high-level paths discovered.
func (s *Session) HLPathCount() int { return len(s.hlPaths) }

// Engine exposes the underlying low-level engine (stats, clock).
func (s *Session) Engine() *lowlevel.Engine { return s.eng }

// CFG exposes the dynamically discovered high-level CFG.
func (s *Session) CFG() *CFG { return s.cfg }

// hlNode is a node of the high-level execution tree. Node 0 is the root,
// which has no pc; every other node is one occurrence of an HLPC, reached
// from its parent by one log_pc. IDs are handed out in discovery order, so
// they are the dynamic HLPCs of §3.3 that CUPA-path classifies states by.
type hlNode struct {
	pc     HLPC
	cfg    uint32 // dense CFG index of pc (unset on the root)
	first  uint32 // first child, 0 if none
	next   uint32 // next sibling, 0 if none
	cursor uint32 // child taken last, 0 if none
	edge   bool   // the CFG edge from the parent's pc has been recorded
}

// hlNode returns the child of parent along pc in the high-level execution
// tree, appending it on first sight. A re-execution replays its parent
// run's prefix, so the cursor answers almost every call; only a new node
// costs a hash lookup (its CFG index).
func (s *Session) hlNode(parent uint32, pc HLPC) uint32 {
	t := s.tree
	p := &t[parent]
	if c := p.cursor; c != 0 && t[c].pc == pc {
		return c
	}
	for c := p.first; c != 0; c = t[c].next {
		if t[c].pc == pc {
			p.cursor = c
			return c
		}
	}
	if uint64(len(t)) > math.MaxUint32 {
		panic("chef: high-level execution tree exceeds 2^32 nodes")
	}
	id := uint32(len(t))
	if len(t) == cap(t) {
		// Double rather than let append grow by 1.25x: each regrowth copies
		// the whole tree, which reaches tens of thousands of nodes.
		t = slices.Grow(t, len(t))
	}
	t = append(t, hlNode{pc: pc, cfg: s.cfg.index(pc), next: p.first})
	t[parent].first, t[parent].cursor = id, id
	s.tree = t
	return id
}

// Ctx is the guest API handed to the instrumented interpreter — the CHEF
// side of Table 1. It wraps the low-level machine with high-level tracing.
type Ctx struct {
	M *lowlevel.Machine
	s *Session

	// hashOnly makes log_pc observation-only (Session.ReplaySig): it steps
	// the machine and extends the signature but leaves the session's tree
	// and CFG alone.
	hashOnly bool
	node     uint32 // current node of the high-level execution tree
	started  bool
	hlSig    uint64
	hlLen    int
	result   string
}

// LogPC implements log_pc(pc, opcode): the interpreter calls it at the head
// of its dispatch loop to declare the current high-level location and the
// opcode about to execute.
func (c *Ctx) LogPC(pc HLPC, opcode uint32) {
	c.M.Step(1)
	c.M.StaticHLPC = pc
	c.M.Opcode = opcode
	c.hlSig = c.hlSig*0x100000001b3 ^ pc
	c.hlLen++
	if c.hashOnly {
		return
	}
	s := c.s
	parent := c.node
	c.node = s.hlNode(parent, pc)
	c.M.DynHLPC = uint64(c.node)
	n := &s.tree[c.node]
	// The root has no pc, but started is false on a run's first log_pc, so
	// parent is a real node whenever an edge is recorded.
	if c.started && !n.edge {
		n.edge = true
		from := &s.tree[parent]
		// Trace HLPC transitions at first observation only: the deduplicated
		// stream is the discovered high-level CFG in discovery order, keeping
		// traces bounded by CFG size rather than execution length.
		if s.cfg.addEdge(from.cfg, n.cfg) && s.tracer != nil {
			s.tracer.Emit(&obs.Event{
				T:      s.eng.Clock() + c.M.Steps(),
				Kind:   obs.KindHLEdge,
				From:   from.pc,
				HLPC:   pc,
				Opcode: opcode,
			})
		}
	}
	s.cfg.setOpcode(n.cfg, opcode)
	c.started = true
	if s.mLogPC != nil {
		s.mLogPC.Inc()
	}
}

// GetString implements the make_symbolic path of the symbolic test library's
// getString: it returns n concolic bytes named buf, defaulting to def
// (padded with zeros) on the first run.
func (c *Ctx) GetString(buf string, n int, def string) []lowlevel.SVal {
	out := make([]lowlevel.SVal, n)
	for i := 0; i < n; i++ {
		var d byte
		if i < len(def) {
			d = def[i]
		}
		out[i] = c.M.InputByte(buf, i, d)
	}
	return out
}

// GetInt returns a concolic 32-bit integer input named name.
func (c *Ctx) GetInt(name string, def int32) lowlevel.SVal {
	return c.M.InputInt32(name, def)
}

// Assume implements the assume(expr) API call.
func (c *Ctx) Assume(llpc lowlevel.LLPC, cond lowlevel.SVal) { c.M.Assume(llpc, cond) }

// Concretize implements the concretize(buf) API call.
func (c *Ctx) Concretize(v lowlevel.SVal) uint64 { return c.M.ConcretizeSilent(v) }

// UpperBound implements the upper_bound(value) API call.
func (c *Ctx) UpperBound(v lowlevel.SVal) uint64 { return c.M.UpperBound(v) }

// IsSymbolic implements the is_symbolic(buf) API call.
func (c *Ctx) IsSymbolic(v lowlevel.SVal) bool { return v.IsSymbolic() }

// StartSymbolic implements start_symbolic. Under S2E the call switched the
// VM into multi-path mode; in this engine every session run is symbolic from
// the first instruction, so the call only anchors the high-level trace (the
// next log_pc starts a fresh CFG edge chain), letting tests scope tracing to
// the code under test.
func (c *Ctx) StartSymbolic() {
	c.started = false
}

// EndSymbolic implements end_symbolic: it terminates the current state.
func (c *Ctx) EndSymbolic() { c.M.EndSymbolic() }

// SetResult records the interpreter-visible outcome of the run (for example
// "ok" or "exception:KeyError"), stored on the generated test case.
func (c *Ctx) SetResult(r string) { c.result = r }

// Result returns the recorded outcome.
func (c *Ctx) Result() string { return c.result }

// CFG is the dynamically discovered high-level control-flow graph plus the
// derived data the coverage-optimized CUPA strategy needs: inferred
// branching opcodes and distances to potential branching points.
//
// Every HLPC gets a dense index on first sight; the graph itself lives in a
// slice indexed by it, so the execution tree, which carries the index of
// each node's pc, updates the CFG without hashing.
type CFG struct {
	idx   map[HLPC]uint32
	nodes []cfgNode
	// nOps counts the locations with an opcode, nEdges the transitions.
	nOps, nEdges int

	dirty bool
	dist  []int32 // by dense index; -1 when no potential branch point is reachable
}

type cfgNode struct {
	pc           HLPC
	opcode       uint32
	hasOp        bool
	succs, preds []uint32
}

// NewCFG returns an empty CFG.
func NewCFG() *CFG {
	return &CFG{idx: map[HLPC]uint32{}}
}

// index returns pc's dense index, assigning the next one on first sight.
func (g *CFG) index(pc HLPC) uint32 {
	if i, ok := g.idx[pc]; ok {
		return i
	}
	if uint64(len(g.nodes)) > math.MaxUint32 {
		panic("chef: high-level CFG exceeds 2^32 locations")
	}
	i := uint32(len(g.nodes))
	g.idx[pc] = i
	g.nodes = append(g.nodes, cfgNode{pc: pc})
	g.dirty = true // dist must cover every index
	return i
}

// AddEdge records an observed transition between high-level locations and
// reports whether the edge was new (first observation).
func (g *CFG) AddEdge(from, to HLPC) bool {
	return g.addEdge(g.index(from), g.index(to))
}

func (g *CFG) addEdge(from, to uint32) bool {
	f := &g.nodes[from]
	if slices.Contains(f.succs, to) {
		return false
	}
	f.succs = append(f.succs, to)
	t := &g.nodes[to]
	t.preds = append(t.preds, from)
	g.nEdges++
	g.dirty = true
	return true
}

// SetOpcode records the opcode of a high-level location.
func (g *CFG) SetOpcode(pc HLPC, opcode uint32) { g.setOpcode(g.index(pc), opcode) }

func (g *CFG) setOpcode(i uint32, opcode uint32) {
	n := &g.nodes[i]
	if !n.hasOp {
		n.hasOp = true
		g.nOps++
	} else if n.opcode == opcode {
		return
	}
	n.opcode = opcode
	g.dirty = true
}

// Nodes returns the number of distinct high-level locations seen.
func (g *CFG) Nodes() int { return g.nOps }

// Edges returns the number of distinct transitions seen.
func (g *CFG) Edges() int { return g.nEdges }

// BranchingOpcodes infers the opcodes that may branch, per §3.4: opcodes of
// instructions observed with out-degree >= 2, minus the 10% least frequent
// of them (which correspond to exceptions and other rare control transfers).
func (g *CFG) BranchingOpcodes() map[uint32]bool {
	freq := map[uint32]int{}
	for i := range g.nodes {
		if n := &g.nodes[i]; len(n.succs) >= 2 {
			freq[n.opcode]++
		}
	}
	if len(freq) == 0 {
		return map[uint32]bool{}
	}
	type of struct {
		op uint32
		n  int
	}
	all := make([]of, 0, len(freq))
	for op, n := range freq {
		all = append(all, of{op, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n < all[j].n
		}
		return all[i].op < all[j].op
	})
	drop := len(all) / 10
	out := map[uint32]bool{}
	for _, e := range all[drop:] {
		out[e.op] = true
	}
	return out
}

// PotentialBranchPoints returns the locations that have a branching opcode
// but only one observed successor — the frontier where new high-level
// branches may be discovered.
func (g *CFG) PotentialBranchPoints() []HLPC {
	var out []HLPC
	for _, i := range g.frontier() {
		out = append(out, g.nodes[i].pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// frontier returns the dense indices of the potential branch points, in
// index order.
func (g *CFG) frontier() []uint32 {
	branching := g.BranchingOpcodes()
	var out []uint32
	for i := range g.nodes {
		if n := &g.nodes[i]; n.hasOp && branching[n.opcode] && len(n.succs) == 1 {
			out = append(out, uint32(i))
		}
	}
	return out
}

const unknownDistance = 1 << 20

// Distance returns the forward distance (in CFG edges) from pc to the
// nearest potential branching point, recomputing lazily when the CFG
// changed. Locations that cannot reach any potential branching point get a
// large distance so they are deprioritized, never starved.
func (g *CFG) Distance(pc HLPC) int {
	if g.dirty || g.dist == nil {
		g.recompute()
	}
	if i, ok := g.idx[pc]; ok && g.dist[i] >= 0 {
		return int(g.dist[i])
	}
	return unknownDistance
}

func (g *CFG) recompute() {
	g.dirty = false
	g.dist = make([]int32, len(g.nodes))
	for i := range g.dist {
		g.dist[i] = -1
	}
	queue := g.frontier()
	for _, i := range queue {
		g.dist[i] = 0
	}
	// Reverse BFS: distance from a node to the nearest frontier node along
	// forward edges. BFS distances do not depend on the visiting order.
	for q := 0; q < len(queue); q++ {
		cur := queue[q]
		d := g.dist[cur] + 1
		for _, pred := range g.nodes[cur].preds {
			if g.dist[pred] < 0 {
				g.dist[pred] = d
				queue = append(queue, pred)
			}
		}
	}
}

// String summarizes the CFG.
func (g *CFG) String() string {
	return fmt.Sprintf("cfg{nodes: %d, edges: %d, frontier: %d}", g.Nodes(), g.Edges(), len(g.PotentialBranchPoints()))
}

// Summary condenses a finished session for reporting. Session.Summary
// returns it by value — a point-in-time snapshot; call again for fresh
// numbers. Aggregators (the portfolio runner, the experiment harness)
// combine per-session summaries with Add instead of summing fields by hand.
type Summary struct {
	HLTests     int
	HLPaths     int
	LLPaths     int64
	Runs        int64
	Hangs       int64
	Forks       int64
	UnsatStates int64
	Divergences int64
	CFGNodes    int
	CFGEdges    int
	VirtTime    int64

	// Degradation accounting (see lowlevel.Stats and internal/faults).
	RequeuedStates  int64
	AbandonedStates int64
	FaultsInjected  int64
	Stalled         int // 1 when the session stalled (worker.stall)
}

// Add folds another session's summary into s, field by field. CFG sizes and
// virtual times add up (a portfolio's aggregate CFG work), path counts add
// without cross-session deduplication — use PortfolioResult.Tests for the
// deduplicated view.
func (s *Summary) Add(o Summary) {
	s.HLTests += o.HLTests
	s.HLPaths += o.HLPaths
	s.LLPaths += o.LLPaths
	s.Runs += o.Runs
	s.Hangs += o.Hangs
	s.Forks += o.Forks
	s.UnsatStates += o.UnsatStates
	s.Divergences += o.Divergences
	s.CFGNodes += o.CFGNodes
	s.CFGEdges += o.CFGEdges
	s.VirtTime += o.VirtTime
	s.RequeuedStates += o.RequeuedStates
	s.AbandonedStates += o.AbandonedStates
	s.FaultsInjected += o.FaultsInjected
	s.Stalled += o.Stalled
}

// Summary returns a value snapshot of the session's headline numbers, taken
// at call time (it does not track later exploration).
func (s *Session) Summary() Summary {
	st := s.eng.Stats()
	sum := Summary{
		HLTests:         len(s.tests),
		HLPaths:         len(s.hlPaths),
		LLPaths:         st.LLPaths,
		Runs:            st.Runs,
		Hangs:           st.Hangs,
		Forks:           st.Forks,
		UnsatStates:     st.UnsatStates,
		Divergences:     st.Divergences,
		CFGNodes:        s.cfg.Nodes(),
		CFGEdges:        s.cfg.Edges(),
		VirtTime:        s.eng.Clock(),
		RequeuedStates:  st.RequeuedStates,
		AbandonedStates: st.AbandonedStates,
		FaultsInjected:  s.faults.Injected(),
	}
	if s.stalled {
		sum.Stalled = 1
	}
	return sum
}

// Stalled reports whether the session was stalled by an injected
// worker.stall fault and never explored.
func (s *Session) Stalled() bool { return s.stalled }

// FaultsInjected returns the number of faults this session's injector fired
// (solver and stall sites; the persistent store's injector counts
// separately).
func (s *Session) FaultsInjected() int64 { return s.faults.Injected() }

// ReplaySig executes the session's program once under the given concrete
// input on a non-forking machine and returns the high-level path signature
// the run produces. It lets external tools map concrete inputs (for example,
// test cases from another engine) onto this session's high-level paths —
// the §6.6 reference-implementation workflow. The replay is observation-only:
// the session's execution tree and CFG stay as they were.
func (s *Session) ReplaySig(input symexpr.Assignment) uint64 {
	limit := s.opts.StepLimit
	if limit <= 0 {
		limit = 1 << 20
	}
	m := lowlevel.NewConcreteMachine(input.Clone(), limit)
	ctx := &Ctx{M: m, s: s, hashOnly: true}
	m.RunConcrete(func(*lowlevel.Machine) { s.prog(ctx) })
	return ctx.hlSig
}
