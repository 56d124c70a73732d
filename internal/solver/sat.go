// Package solver decides satisfiability of path conditions over the
// bit-vector expressions of package symexpr. It plays STP's role from the
// paper: constraints are bit-blasted to CNF and decided by a CDCL SAT solver.
//
// The solver additionally implements the classic symbolic-execution
// optimizations the paper's platform relies on: independent-constraint
// slicing, a counterexample (model) cache, and a binary-search Maximize used
// to implement the upper_bound API call of Table 1.
package solver

// Lit is a CNF literal: variable index shifted left once, LSB = negated.
// Variable indices start at 1; literal 0 is invalid.
type Lit int32

func mkLit(v int32, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l Lit) varIdx() int32 { return int32(l >> 1) }
func (l Lit) negated() bool { return l&1 != 0 }
func (l Lit) not() Lit      { return l ^ 1 }

const (
	unassigned int8 = 0
	assignT    int8 = 1
	assignF    int8 = -1
)

// clause is a CNF clause. Problem clauses are carved from the solver's slab
// with their literals in its arena (see newClause); learned clauses are
// allocated on their own.
type clause struct {
	lits    []Lit
	learned bool
}

// Initial capacities of the clause slab and literal arena; each doubles
// when full.
const (
	minSlab  = 256
	minArena = 1024
)

// satSolver is a CDCL SAT solver with two-watched-literal propagation,
// first-UIP clause learning, activity-based branching and Luby restarts.
//
// All per-variable and per-literal state lives in dense arrays, and reset
// empties them without freeing them, so one satSolver can serve a stream of
// independent queries at the allocation cost of the largest one.
type satSolver struct {
	numVars    int32
	numClauses int // problem clauses installed (excludes units)
	// slab holds the problem clause headers and arena their literals. When
	// either is full a fresh one of twice the capacity replaces it, and the
	// old backing array stays with the clauses already in it, so a live
	// clause never moves; reset truncates both, keeping the largest.
	slab  []clause
	arena []Lit
	// watches is indexed by literal: watches[l] lists the clauses watching
	// ¬l, in the order they started watching it, and is visited when l
	// becomes true. Entries beyond len(watches) are kept empty for reuse.
	watches  [][]*clause
	assign   []int8    // 1-indexed by variable
	level    []int32   // decision level per variable
	reason   []*clause // antecedent clause per variable
	trail    []Lit
	trailLim []int32 // trail index per decision level
	qhead    int
	activity []float64
	varInc   float64
	polarity []bool // phase saving
	// mark is the one dedup mechanism of the solver: an entry indexed by
	// literal (a variable marks through its positive literal) is set iff it
	// equals markGen, which nextMark advances once per marking round.
	mark      []uint32
	markGen   uint32
	conflicts int64
	decisions int64
	propsN    int64
	budget    int64 // max propagations; <=0 means unlimited
}

func newSatSolver() *satSolver {
	s := new(satSolver)
	s.reset()
	return s
}

// reset returns s to the state of a fresh solver: no variables, no clauses,
// zeroed counters and options. Only the capacity of its arrays survives, so
// whatever a query computes after reset is independent of earlier queries.
func (s *satSolver) reset() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	*s = satSolver{
		slab:     s.slab[:0],
		arena:    s.arena[:0],
		watches:  s.watches[:0],
		assign:   s.assign[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		activity: s.activity[:0],
		varInc:   1,
		polarity: s.polarity[:0],
		mark:     s.mark[:0],
	}
}

// newVar allocates a fresh SAT variable and returns its index.
func (s *satSolver) newVar() int32 {
	if s.numVars == 0 {
		s.growVar() // index 0 placeholder so variables can be 1-indexed
	}
	s.numVars++
	s.growVar()
	return s.numVars
}

// growVar appends the slots of one variable and of its two literals.
func (s *satSolver) growVar() {
	s.assign = append(s.assign, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.mark = append(s.mark, 0, 0)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2] // emptied by reset, capacity kept
	} else {
		s.watches = append(s.watches, nil, nil)
	}
}

// nextMark starts a marking round over s.mark and returns its stamp. When
// the counter wraps, every entry is zeroed so no stale mark aliases the new
// round.
func (s *satSolver) nextMark() uint32 {
	s.markGen++
	if s.markGen == 0 {
		clear(s.mark)
		s.markGen = 1
	}
	return s.markGen
}

func (s *satSolver) value(l Lit) int8 {
	v := s.assign[l.varIdx()]
	if v == unassigned {
		return unassigned
	}
	if l.negated() {
		return -v
	}
	return v
}

// addClause installs a problem clause. It returns false when the formula is
// trivially unsatisfiable (empty clause or conflicting units).
//
// Literals already assigned at level 0 are simplified away: a true literal
// satisfies the clause permanently, a false literal can never help. Without
// this, the two-watched-literal scheme could watch a permanently false
// literal (e.g. the negation of the constant-true literal every constant bit
// encodes to), and the clause would silently never propagate — an
// under-constrained circuit.
//
// Clauses are only added at level 0, before the search starts, so every
// assigned literal is a level-0 fact and the survivors are all unassigned:
// any two of them can be watched, and a unit survivor can be enqueued.
func (s *satSolver) addClause(lits []Lit) bool {
	// Deduplicate, drop tautologies, and simplify against level-0 facts.
	gen := s.nextMark()
	out := lits[:0]
	for _, l := range lits {
		if s.mark[l.not()] == gen {
			return true // tautology: always satisfied
		}
		switch s.value(l) {
		case assignT:
			return true // already satisfied forever
		case assignF:
			continue // can never contribute
		}
		if s.mark[l] != gen {
			s.mark[l] = gen
			out = append(out, l)
		}
	}
	lits = out
	switch len(lits) {
	case 0:
		return false
	case 1:
		s.enqueue(lits[0], nil)
		return s.propagate() == nil
	}
	s.watch(s.newClause(lits))
	return true
}

// newClause copies a problem clause into the slab and arena.
func (s *satSolver) newClause(lits []Lit) *clause {
	if len(s.arena)+len(lits) > cap(s.arena) {
		s.arena = make([]Lit, 0, 2*cap(s.arena)+len(lits)+minArena)
	}
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]clause, 0, 2*cap(s.slab)+minSlab)
	}
	n := len(s.arena)
	s.arena = append(s.arena, lits...)
	s.slab = append(s.slab, clause{lits: s.arena[n:len(s.arena):len(s.arena)]})
	s.numClauses++
	return &s.slab[len(s.slab)-1]
}

func (s *satSolver) watch(c *clause) {
	s.watches[c.lits[0].not()] = append(s.watches[c.lits[0].not()], c)
	s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], c)
}

func (s *satSolver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *satSolver) enqueue(l Lit, from *clause) {
	v := l.varIdx()
	if l.negated() {
		s.assign[v] = assignF
	} else {
		s.assign[v] = assignT
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause or
// nil.
func (s *satSolver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.propsN++
		ws := s.watches[l]
		kept := ws[:0]
		var confl *clause
		for i, c := range ws {
			if confl != nil {
				kept = append(kept, ws[i:]...)
				break
			}
			// Ensure the false literal is lits[1].
			if c.lits[0].not() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == assignT {
				kept = append(kept, c)
				continue
			}
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != assignF {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, c)
			if s.value(c.lits[0]) == assignF {
				confl = c
				continue
			}
			s.enqueue(c.lits[0], c)
		}
		s.watches[l] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *satSolver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs first-UIP conflict analysis, returning the learned clause
// (asserting literal first) and the backtrack level.
func (s *satSolver) analyze(confl *clause) ([]Lit, int32) {
	learnt := []Lit{0} // slot 0 for the asserting literal
	gen := s.nextMark()
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	reasonC := confl
	for {
		for i, q := range reasonC.lits {
			if reasonC == confl || i > 0 { // skip the asserting literal of reasons
				v := q.varIdx()
				if s.mark[mkLit(v, false)] != gen && s.level[v] > 0 {
					s.mark[mkLit(v, false)] = gen
					s.bumpVar(v)
					if s.level[v] >= s.decisionLevel() {
						counter++
					} else {
						learnt = append(learnt, q)
					}
				}
			}
		}
		// Find the next literal to expand on the trail.
		for s.mark[mkLit(s.trail[idx].varIdx(), false)] != gen {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.mark[mkLit(p.varIdx(), false)] = 0
		counter--
		if counter == 0 {
			break
		}
		reasonC = s.reason[p.varIdx()]
	}
	learnt[0] = p.not()
	// Compute backtrack level: max level among tail literals.
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].varIdx()] > s.level[learnt[maxI].varIdx()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].varIdx()]
	}
	return learnt, bt
}

func (s *satSolver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= int(s.trailLim[lvl]); i-- {
		v := s.trail[i].varIdx()
		s.polarity[v] = s.assign[v] == assignT
		s.assign[v] = unassigned
		s.reason[v] = nil
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *satSolver) pickBranchVar() int32 {
	best := int32(0)
	bestAct := -1.0
	for v := int32(1); v <= s.numVars; v++ {
		if s.assign[v] != unassigned {
			continue
		}
		if s.activity[v] > bestAct {
			bestAct = s.activity[v]
			best = v
		}
	}
	return best
}

func luby(i int64) int64 {
	// Luby sequence: 1 1 2 1 1 2 4 ...
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i >= int64(1)<<(k-1) && i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

type satResult int8

const (
	resUnknown satResult = iota
	resSat
	resUnsat
)

// solve runs the CDCL loop over the installed clauses.
func (s *satSolver) solve() satResult {
	if s.propagate() != nil {
		return resUnsat
	}
	restart := int64(1)
	conflBudget := luby(restart) * 128
	conflCount := int64(0)
	for {
		if s.budget > 0 && s.propsN > s.budget {
			return resUnknown
		}
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflCount++
			if s.decisionLevel() == 0 {
				return resUnsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learned: true}
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc *= 1.05
			continue
		}
		if conflCount >= conflBudget {
			// Restart.
			conflCount = 0
			restart++
			conflBudget = luby(restart) * 128
			s.cancelUntil(0)
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return resSat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.enqueue(mkLit(v, !s.polarity[v]), nil)
	}
}
