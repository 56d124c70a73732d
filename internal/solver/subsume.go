package solver

import (
	"sync"

	"chef/internal/symexpr"
)

// Subsumption layer of the counterexample cache.
//
// The exact-match layer only answers queries it has literally seen. The
// subsumption layer exploits two logical facts about conjunctive queries,
// following the KLEE counterexample-cache design the survey literature
// describes:
//
//  1. If a cached constraint set E is unsatisfiable and E ⊆ Q, then Q is
//     unsatisfiable (adding conjuncts can only remove solutions).
//  2. If a cached assignment M satisfies E and E ⊆ Q, then M *might*
//     satisfy Q: re-evaluating the remaining constraints of Q under M is a
//     cheap concrete check, and succeeds often because path conditions grow
//     one conjunct at a time. Dually, if E ⊇ Q and M satisfies E, then M
//     satisfies Q by construction — no re-check needed.
//
// Both facts are timeless: an entry never becomes wrong, so this store needs
// no coherence with the exact layer's FIFO eviction. It is bounded by a
// wholesale epoch flush (when full, it is cleared and restarted), which
// keeps behavior deterministic for a deterministic insertion sequence —
// unlike LRU, whose contents would depend on lookup order.
//
// Candidate discovery uses an inverted index from constraint (interning ID
// of the hash-consed *Expr) to the entries containing it. Lookups walk
// candidates in insertion order and take the first hit, so results are
// deterministic given deterministic cache state; the walk is capped so a
// degenerate store cannot turn a cache miss into a linear scan.

// subsumeScanCap bounds how many candidate entries one lookup may verify
// per direction. The cap is part of observable behavior (a capped-out
// lookup is a miss), so it is a fixed constant, not a tuning knob.
const subsumeScanCap = 64

type subEntry struct {
	constraints []*symexpr.Expr // canonical order
	ids         map[uint64]bool // interning IDs of constraints
	result      Result
	model       symexpr.Assignment // nil for Unsat
}

type subsumeStore struct {
	mu      sync.Mutex
	entries []subEntry
	byID    map[uint64][]int // constraint ID -> entry indexes, insertion order
	cap     int
}

func (s *subsumeStore) init(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	s.cap = capacity
	s.byID = map[uint64][]int{}
}

// add indexes a canonicalized query result. Unknown results are never
// stored. The caller passes already-cloned slices/models (Store does).
func (s *subsumeStore) add(canon []*symexpr.Expr, r Result, m symexpr.Assignment) {
	if r == Unknown || len(canon) == 0 {
		return
	}
	ids := make(map[uint64]bool, len(canon))
	for _, c := range canon {
		ids[c.ID()] = true
	}
	s.mu.Lock()
	if len(s.entries) >= s.cap {
		// Epoch flush: deterministic, O(1) amortized, and sound (dropping
		// entries only loses hit opportunities).
		s.entries = nil
		s.byID = map[uint64][]int{}
	}
	idx := len(s.entries)
	s.entries = append(s.entries, subEntry{canon, ids, r, m})
	for _, c := range canon {
		s.byID[c.ID()] = append(s.byID[c.ID()], idx)
	}
	s.mu.Unlock()
}

// lookup tries to answer the canonicalized query by subsumption. The
// returned model (Sat hits) is freshly allocated and covers exactly the
// variables of the query, extended with the zero default for variables the
// donor entry leaves unconstrained — EvalBool treats missing variables as
// zero, so the returned assignment must pin them explicitly or the caller's
// base-merge could silently substitute different values.
func (s *subsumeStore) lookup(canon []*symexpr.Expr) (Result, symexpr.Assignment, HitClass) {
	if len(canon) == 0 {
		return Unknown, nil, HitNone
	}
	qids := make(map[uint64]bool, len(canon))
	for _, c := range canon {
		qids[c.ID()] = true
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Pass 1 — subset entries (E ⊆ Q): candidates are entries containing any
	// constraint of Q; verified by checking every constraint of E is in Q.
	// Walk in (constraint canonical order, entry insertion order) so the
	// first hit is deterministic.
	seen := map[int]bool{}
	scanned := 0
	for _, c := range canon {
		for _, idx := range s.byID[c.ID()] {
			if seen[idx] {
				continue
			}
			seen[idx] = true
			if scanned++; scanned > subsumeScanCap {
				break
			}
			e := &s.entries[idx]
			if len(e.constraints) > len(canon) || !subset(e.ids, qids) {
				continue
			}
			if e.result == Unsat {
				// E ⊆ Q and E unsat ⇒ Q unsat.
				return Unsat, nil, HitSubsumeUnsat
			}
			// E ⊆ Q and model satisfies E: re-check the whole of Q under the
			// model extended with zeros for Q's extra variables.
			if m, ok := recheck(canon, e.model); ok {
				return Sat, m, HitSubsumeSat
			}
		}
		if scanned > subsumeScanCap {
			break
		}
	}

	// Pass 2 — superset entries (E ⊇ Q): candidates must contain Q's first
	// canonical constraint; verified by Q ⊆ E. The donor's model satisfies
	// every constraint of E, hence all of Q.
	scanned = 0
	for _, idx := range s.byID[canon[0].ID()] {
		if scanned++; scanned > subsumeScanCap {
			break
		}
		e := &s.entries[idx]
		if e.result != Sat || len(e.constraints) < len(canon) || !subset(qids, e.ids) {
			continue
		}
		return Sat, restrict(canon, e.model), HitSubsumeSat
	}
	return Unknown, nil, HitNone
}

// subset reports a ⊆ b for ID sets.
func subset(a, b map[uint64]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// recheck evaluates every constraint of canon under the donor model extended
// with zeros for unassigned variables, returning the extended model on
// success. The extension is restricted to the query's own variables so the
// returned assignment matches what a direct solve would cover.
func recheck(canon []*symexpr.Expr, donor symexpr.Assignment) (symexpr.Assignment, bool) {
	m := symexpr.Assignment{}
	for _, c := range canon {
		for _, l := range c.VarLeaves() {
			v := l.VarRef()
			if _, ok := m[v]; !ok {
				m[v] = donor[v] & v.W.Mask() // zero when donor leaves it free
			}
		}
	}
	for _, c := range canon {
		if !symexpr.EvalBool(c, m) {
			return nil, false
		}
	}
	return m, true
}

// restrict projects the donor model onto the variables of the query. The
// donor assigns every variable of a superset constraint set, so the
// projection stays a model of the query.
func restrict(canon []*symexpr.Expr, donor symexpr.Assignment) symexpr.Assignment {
	m := symexpr.Assignment{}
	for _, c := range canon {
		for _, l := range c.VarLeaves() {
			v := l.VarRef()
			if _, ok := m[v]; !ok {
				m[v] = donor[v] & v.W.Mask()
			}
		}
	}
	return m
}
