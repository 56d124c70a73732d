package symexpr

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Hash-consing interner.
//
// Every Expr constructed by this package is routed through a per-process
// interner, so structurally equal expressions are pointer-identical:
//
//   - Equal degrades to a pointer comparison (O(1), no DAG walks);
//   - every node carries a process-unique ID usable as a map key by caches
//     and indexes;
//   - maximal sharing: an interpreter loop that rebuilds the same term on
//     every iteration allocates it once.
//
// Construction probes first and allocates only on a miss. A constructor
// computes the structural hash from the node's fields (op, width, children,
// leaf data), locks the shard that hash selects, and compares those fields
// against the bucket directly. Children are already interned, so an interior
// node matches a candidate iff op and width match and the child pointers are
// identical. Only when nothing matches does it allocate the Expr (and, for a
// variable, the Var copy; for an interior node, a copy of the children), so a
// hit allocates nothing and the constructors' variadic children never escape.
//
// The interner is sharded by structural hash, so concurrent sessions of the
// parallel experiment harness mostly touch distinct shards.
//
// The table is append-only for the life of the process (like the symtest
// compile interner): expressions are immutable and timelessly valid, so
// eviction would only trade memory for recomputation. Workloads here are
// bounded exploration runs; a long-running service embedding the engine
// would hold the table for its lifetime, which is the usual hash-consing
// trade.
//
// Determinism note: IDs are assigned in intern order, which under the
// parallel harness depends on scheduling. IDs therefore never influence
// anything semantically visible — canonical orderings that affect solver
// results use Compare (process-independent structural order), never ID
// order. IDs are only used for process-local map keys where the *identity*
// matters but the *order* does not.

const internShardCount = 64

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]*Expr
}

var (
	internShards [internShardCount]internShard
	internNextID atomic.Uint64
	internSize   atomic.Int64
)

// lockShard locks and returns the shard that owns hash h.
func lockShard(h uint64) *internShard {
	sh := &internShards[(h^h>>32)%internShardCount]
	sh.mu.Lock()
	return sh
}

// insert registers e, a node the caller has just failed to find in its hash
// bucket while holding sh's lock, releases the lock and returns e. e's
// children must already be interned.
func (sh *internShard) insert(e *Expr) *Expr {
	if sh.m == nil {
		sh.m = map[uint64][]*Expr{}
	}
	e.id = internNextID.Add(1)
	e.vars = varsOf(e)
	sh.m[e.hash] = append(sh.m[e.hash], e)
	sh.mu.Unlock()
	internSize.Add(1)
	return e
}

// internConst returns the canonical constant v (already masked) of width w,
// whose structural hash is h.
func internConst(v uint64, w Width, h uint64) *Expr {
	sh := lockShard(h)
	for _, c := range sh.m[h] {
		if c.IsConst() && c.w == w && c.val == v {
			sh.mu.Unlock()
			return c
		}
	}
	return sh.insert(&Expr{w: w, val: v, hash: h})
}

// internVar returns the canonical leaf of variable v, whose structural hash
// is h.
func internVar(v Var, h uint64) *Expr {
	sh := lockShard(h)
	for _, c := range sh.m[h] {
		if c.IsVar() && *c.varr == v {
			sh.mu.Unlock()
			return c
		}
	}
	vv := v
	return sh.insert(&Expr{w: v.W, varr: &vv, hash: h})
}

// internNode returns the canonical interior node (op, w, kids), whose
// structural hash is h. kids is copied when the node is new and never
// retained otherwise.
func internNode(op Op, w Width, kids []*Expr, h uint64) *Expr {
	sh := lockShard(h)
probe:
	for _, c := range sh.m[h] {
		if c.op != op || c.w != w || len(c.kids) != len(kids) {
			continue
		}
		for i, k := range kids {
			if c.kids[i] != k {
				continue probe
			}
		}
		sh.mu.Unlock()
		return c
	}
	return sh.insert(&Expr{op: op, w: w, kids: append([]*Expr(nil), kids...), hash: h})
}

// varsOf computes the variable set of a node being registered, so a
// constructor call that finds its node already interned pays nothing. A
// leaf's set is itself; an interior node shares its widest child's set when
// that covers the union of its children's, and gets a fresh one otherwise.
func varsOf(e *Expr) *[]*Expr {
	if e.varr != nil {
		return &[]*Expr{e}
	}
	var widest *[]*Expr
	var u []*Expr
	for _, k := range e.kids {
		if k.vars != nil {
			u = append(u, *k.vars...)
			if widest == nil || len(*k.vars) > len(*widest) {
				widest = k.vars
			}
		}
	}
	if widest == nil || len(u) == len(*widest) {
		return widest
	}
	sort.Slice(u, func(i, j int) bool { return u[i].id < u[j].id })
	out := u[:1]
	for _, l := range u[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	if len(out) == len(*widest) {
		return widest
	}
	return &out
}

// InternedCount returns the number of distinct expressions interned so far
// in this process (observability only).
func InternedCount() int64 { return internSize.Load() }

// ID returns the process-unique interning ID of the expression. IDs identify
// structurally distinct expressions within one process: x.ID() == y.ID() iff
// x == y (pointer equality) iff x and y are structurally equal. IDs are
// assigned in intern order and are not stable across processes — persistent
// caches key by structural content (see Compare and the encode/decode
// layer), never by ID.
func (e *Expr) ID() uint64 { return e.id }

// Compare defines a process-independent total order on expressions:
// Compare(a, b) is negative/zero/positive as a sorts before/equals/sorts
// after b, and depends only on expression *structure* (never on interning
// IDs or pointer values), so any two processes agree on it. The solver
// canonicalizes queries with it before solving, making the solver's answer
// — including the model — a pure function of the constraint set.
//
// The order is: structural hash first (cheap, precomputed), full structural
// comparison as the tie-break for the astronomically rare hash collisions.
func Compare(a, b *Expr) int {
	if a == b {
		return 0
	}
	if a.hash != b.hash {
		if a.hash < b.hash {
			return -1
		}
		return 1
	}
	return structuralCompare(a, b)
}

func structuralCompare(a, b *Expr) int {
	if a == b {
		return 0
	}
	if a.op != b.op {
		return int(a.op) - int(b.op)
	}
	if a.w != b.w {
		return int(a.w) - int(b.w)
	}
	if a.op == OpInvalid {
		av, bv := a.varr != nil, b.varr != nil
		if av != bv {
			if av {
				return 1
			}
			return -1
		}
		if av {
			if a.varr.Buf != b.varr.Buf {
				if a.varr.Buf < b.varr.Buf {
					return -1
				}
				return 1
			}
			if a.varr.Idx != b.varr.Idx {
				return a.varr.Idx - b.varr.Idx
			}
			return int(a.varr.W) - int(b.varr.W)
		}
		switch {
		case a.val < b.val:
			return -1
		case a.val > b.val:
			return 1
		}
		return 0
	}
	if len(a.kids) != len(b.kids) {
		return len(a.kids) - len(b.kids)
	}
	for i := range a.kids {
		if c := Compare(a.kids[i], b.kids[i]); c != 0 {
			return c
		}
	}
	return 0
}
