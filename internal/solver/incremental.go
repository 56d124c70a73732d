package solver

import (
	"chef/internal/obs"
	"chef/internal/symexpr"
)

// Context is an assumption-scoped incremental solving context: one live
// satSolver plus blaster that persists across the queries of an exploration
// cell. Every path-condition constraint is blasted once, gated behind a fresh
// assumption literal a through the permanent clause (¬a ∨ bit), and a query
// for a path condition asserts exactly its constraints' assumption literals
// (MiniSat-style solveUnderAssumptions). Because the engine's queries walk a
// prefix-shared pcNode tree, consecutive queries overlap on a long pointer
// prefix: the context keeps the trail of the shared prefix and pops only the
// diverging suffix instead of rebuilding CNF from scratch, and learned
// clauses — implied by the clause database alone, never by a popped
// assumption — stay valid forever.
//
// A Context inherits the Solver's single-goroutine discipline. Its verdicts
// match the oneshot backend's (both decide the same conjunction), but its
// models and propagation counts are a function of the whole query stream, not
// of the single query — per-stream deterministic, which is what the
// per-cell solver ownership of sessions and shard cells guarantees.
type Context struct {
	sat *satSolver
	bl  *blaster

	// assump maps a constraint (hash-consed, so pointer-stable) to its
	// assumption literal. Entries are permanent for the context's lifetime.
	assump map[*symexpr.Expr]Lit

	// stampSeq versions the cone stamps markActive writes into the solver
	// and into nodeStamp, so a new query invalidates old stamps in O(1).
	stampSeq  int64
	nodeStamp map[*symexpr.Expr]int64 // expr node -> stampSeq it was last walked in

	// order lists the constraints whose assumption levels are currently
	// established on the trail: constraint order[i] is decision level i+1.
	order []*symexpr.Expr

	// poisoned marks a context whose clause database reported hard
	// unsatisfiability (cannot happen for Tseitin-consistent input; kept as
	// a defensive rebuild trigger).
	poisoned bool

	// Growth caps, defaulted from the package constants; regression tests
	// shrink them to force mid-stream rebuilds on small workloads.
	maxLearned int
	maxVars    int32
}

// Context growth caps: past either, the backend discards the context and
// starts fresh (counted as solver.inc.rebuilds). They bound the learned
// clause database and the watch structures so propagation stays fast on
// long-running cells; a rebuild costs one full re-blast of the next query's
// path, exactly like that cell's first query. The variable cap matters most:
// a query that pops to a short shared prefix re-propagates the freed part of
// the accumulated clause database, so per-query cost grows with context size
// on streams with little prefix sharing — recycling at 64k variables keeps
// that bounded while comfortably fitting any single path's cone.
const (
	maxIncLearned = 50_000
	maxIncVars    = 1 << 16
)

func newContext() *Context {
	sat := newSatSolver()
	sat.coneRestrict = true
	c := &Context{
		sat:        sat,
		bl:         newBlaster(sat),
		assump:     map[*symexpr.Expr]Lit{},
		nodeStamp:  map[*symexpr.Expr]int64{},
		maxLearned: maxIncLearned,
		maxVars:    maxIncVars,
	}
	// Activation scoping lets the expression memo stay shared across
	// constraints while keeping dormant circuitry propagation-inert; see
	// blaster.owner.
	c.bl.owner = map[*symexpr.Expr]Lit{}
	c.bl.ranges = map[*symexpr.Expr][2]int32{}
	return c
}

// overLimit reports whether the context hit a growth cap.
func (c *Context) overLimit() bool {
	return c.sat.numLearned > c.maxLearned || c.sat.numVars > c.maxVars
}

// lcp returns the length of the longest common prefix of the established
// constraint order and pc, by pointer identity.
func (c *Context) lcp(pc []*symexpr.Expr) int {
	n := 0
	for n < len(c.order) && n < len(pc) && c.order[n] == pc[n] {
		n++
	}
	return n
}

// push ensures every constraint of pc has an assumption literal, blasting
// constraints this context has not seen before. Blasting may retreat the
// trail to level 0 (see addClause); push reconciles c.order afterwards. It
// returns the assumption sequence, or false when the clause database became
// unsatisfiable (poisons the context).
func (c *Context) push(pc []*symexpr.Expr) ([]Lit, bool) {
	assumps := make([]Lit, len(pc))
	for i, e := range pc {
		a, ok := c.assump[e]
		if !ok {
			// Two fresh variables per constraint: the assumption literal a
			// the queries assert, and the activation literal g its circuit
			// clauses are gated with (they are distinct so a borrowing
			// constraint can activate this circuit via g without asserting
			// this constraint's truth via a). The blast runs under g's
			// scope: fresh subcircuits get clauses carrying ¬g, borrowed
			// ones a single (¬g ∨ g_owner) implication. Asserting a then
			// propagates (¬a ∨ g) and transitively activates exactly the
			// circuitry this constraint needs; everything else stays
			// satisfied-wholesale and propagation-inert.
			a = mkLit(c.sat.newVar(), false)
			g := mkLit(c.sat.newVar(), false)
			// Pin both branching phases to false: a popped assumption (and
			// the activation of a dormant circuit) must stay off in later
			// queries, not be re-asserted by a phase-saved decision (see
			// freezePhase).
			c.sat.freezePhase(a.varIdx())
			c.sat.freezePhase(g.varIdx())
			c.bl.gate = g.not()
			c.bl.depSeen = map[Lit]bool{}
			bits := c.bl.blast(e)
			c.bl.gate = 0
			ok := c.sat.addClause([]Lit{a.not(), g})
			if !c.sat.addClause([]Lit{a.not(), bits[0]}) || !ok {
				c.poisoned = true
				return nil, false
			}
			c.assump[e] = a
		}
		assumps[i] = a
	}
	if keep := int(c.sat.decisionLevel()); keep < len(c.order) {
		c.order = c.order[:keep]
	}
	return assumps, true
}

// markActive stamps the active search cone of the query pc: the SAT
// variables of every expression node reachable from pc's constraints (the
// blaster's per-node ranges cover activation variables and gate outputs;
// input-variable bits are stamped from the shared vars map). With the stamp
// in place the satSolver's pickBranchVar decides only cone variables, and
// "no decidable variable left" is a sound Sat verdict for the whole
// database: a conflict-free assignment that is total on the cone always
// extends over the dormant circuitry. Dormant activation variables extend to
// false, satisfying their scope's clauses wholesale; dormant Tseitin gates
// evaluate topologically from their (cone- or dormant-assigned) inputs,
// satisfying their defining clauses by construction; and learned clauses are
// implied by the problem clauses alone, so any extension that satisfies the
// problem clauses satisfies them too. Walking the expression DAG makes the
// cone transitive — every subcircuit an active constraint reuses, however
// old, is stamped — which is what the extension argument needs.
func (c *Context) markActive(pc []*symexpr.Expr) {
	c.stampSeq++
	c.sat.coneSeq = c.stampSeq
	for _, e := range pc {
		c.stampExpr(e)
	}
}

// stampExpr walks one expression DAG, stamping each node's variable range.
// nodeStamp dedups across the query's constraints (shared subterms are
// pointer-identical), so the walk is linear in the cone's DAG size.
func (c *Context) stampExpr(e *symexpr.Expr) {
	if c.nodeStamp[e] == c.stampSeq {
		return
	}
	c.nodeStamp[e] = c.stampSeq
	if e.IsConst() {
		return
	}
	if e.IsVar() {
		for _, l := range c.bl.vars[e.VarRef()] {
			c.sat.coneStamp[l.varIdx()] = c.stampSeq
		}
		return
	}
	if r, ok := c.bl.ranges[e]; ok {
		for v := r[0]; v < r[1]; v++ {
			c.sat.coneStamp[v] = c.stampSeq
		}
	}
	for i := 0; i < e.NumChildren(); i++ {
		c.stampExpr(e.Child(i))
	}
}

// Solve decides the conjunction of pc, given in path order (root first).
// On Sat the model covers every variable of pc. The CDCL search runs under a
// solver.search span on spans (nil when profiling is off).
func (c *Context) Solve(pc []*symexpr.Expr, budget int64, spans *obs.SpanProfiler) (Result, symexpr.Assignment) {
	c.sat.budget = budget
	// Pop the diverging suffix of the previous query, keeping the shared
	// prefix's assumption levels (and everything they implied) on the trail.
	n := c.lcp(pc)
	c.sat.cancelUntil(int32(n))
	c.order = c.order[:n]

	assumps, ok := c.push(pc)
	if !ok {
		return Unsat, nil
	}
	c.markActive(pc)
	sp := spans.Start(obs.SpanSolverSearch)
	props0 := c.sat.propsN
	res, estab := c.sat.solveUnderAssumptions(assumps)
	sp.End(c.sat.propsN - props0)
	switch res {
	case resSat:
		model := c.extractModel(pc)
		// Drop the search levels, keep all assumption levels for the next
		// query's prefix reuse.
		c.sat.cancelUntil(int32(len(assumps)))
		c.order = append(c.order[:0], pc...)
		return Sat, model
	case resUnsat:
		if estab < 0 {
			// The clause database itself is unsatisfiable — defensively
			// poison; Tseitin-consistent input cannot reach this.
			c.poisoned = true
			c.order = c.order[:0]
			return Unsat, nil
		}
		c.order = append(c.order[:0], pc[:estab]...)
		return Unsat, nil
	default:
		// Budget exhausted mid-search: the trail is at an arbitrary depth,
		// reset the context's assumption bookkeeping entirely.
		c.sat.cancelUntil(0)
		c.order = c.order[:0]
		return Unknown, nil
	}
}

// extractModel reads the values of pc's variables off the current (total)
// assignment. It must run before the post-solve cancelUntil.
func (c *Context) extractModel(pc []*symexpr.Expr) symexpr.Assignment {
	out := symexpr.Assignment{}
	for _, e := range pc {
		for _, l := range e.VarLeaves() {
			v := l.VarRef()
			if _, ok := out[v]; ok {
				continue
			}
			bits := c.bl.vars[v]
			var val uint64
			for i, l := range bits {
				if (c.sat.assign[l.varIdx()] == assignT) != l.negated() {
					val |= 1 << uint(i)
				}
			}
			out[v] = val
		}
	}
	return out
}

// incrementalBackend adapts a Context (rebuilding it at the growth caps) to
// the Backend interface.
type incrementalBackend struct {
	s   *Solver
	ctx *Context

	// Test hooks: when > 0, every context built by ensure gets these growth
	// caps instead of the package defaults, so regression tests can force a
	// mid-stream rebuild on a small workload.
	maxLearned int
	maxVars    int32
}

// ensure makes b.ctx live, rebuilding past the growth caps or after a
// poisoning. It reports whether the context was built by this call.
func (b *incrementalBackend) ensure() bool {
	if b.ctx != nil && !b.ctx.poisoned && !b.ctx.overLimit() {
		return false
	}
	if b.ctx != nil {
		b.s.stats.IncRebuilds++
		if b.s.mIncRebuilds != nil {
			b.s.mIncRebuilds.Inc()
		}
	}
	b.ctx = newContext()
	if b.maxLearned > 0 {
		b.ctx.maxLearned = b.maxLearned
	}
	if b.maxVars > 0 {
		b.ctx.maxVars = b.maxVars
	}
	b.s.stats.IncContexts++
	if b.s.mIncContexts != nil {
		b.s.mIncContexts.Inc()
	}
	return true
}

// solveOnce runs one Context.Solve, accumulating its cost deltas and
// bookkeeping counters into cost and the solver stats.
func (b *incrementalBackend) solveOnce(pc []*symexpr.Expr, budget int64, cost *Cost) (Result, symexpr.Assignment) {
	c := b.ctx
	kept := int64(c.sat.numLearned)
	cons0 := len(c.assump)
	props0, confl0, clauses0 := c.sat.propsN, c.sat.conflicts, int64(c.sat.numClauses)
	res, model := c.Solve(pc, budget, b.s.spans)
	cost.Propagations += c.sat.propsN - props0
	cost.Conflicts += c.sat.conflicts - confl0
	cost.ClausesAdded += int64(c.sat.numClauses) - clauses0
	fresh := int64(len(c.assump) - cons0)
	b.s.stats.IncAssumptions += fresh
	b.s.stats.IncLearnedKept += kept
	if b.s.mIncAssumptions != nil {
		b.s.mIncAssumptions.Add(fresh)
		b.s.mIncLearnedKept.Add(kept)
	}
	return res, model
}

func (b *incrementalBackend) Solve(pc []*symexpr.Expr, budget int64) (Result, symexpr.Assignment, Cost) {
	built := b.ensure()
	var cost Cost
	res, model := b.solveOnce(pc, budget, &cost)
	if res == Unknown && b.ctx.sat.overrun && !built {
		// The budget ran out on a context carrying state from earlier
		// queries: every conflict there re-propagates the whole accumulated
		// clause database, so a conflict-heavy query can exhaust on a
		// long-lived context a budget it would comfortably fit on a fresh
		// one. Re-price it once on a fresh context, where it costs exactly
		// what the cell's first-ever query would; the verdict set stays a
		// deterministic function of the query stream, and both attempts'
		// propagations are charged to the query.
		b.ctx.poisoned = true
		b.ensure()
		res, model = b.solveOnce(pc, budget, &cost)
	}
	return res, model, cost
}
