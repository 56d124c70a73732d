package symexpr

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// intern is the reference interning path the probing constructors replaced:
// the caller allocates the candidate node first, and the bucket confirms it
// with shallowEqual. It shares the shard table with the probing path, so a
// term built through either path must come out as the same pointer.
func intern(e *Expr) *Expr {
	sh := lockShard(e.hash)
	for _, c := range sh.m[e.hash] {
		if shallowEqual(c, e) {
			sh.mu.Unlock()
			return c
		}
	}
	return sh.insert(e)
}

// shallowEqual reports structural equality of two nodes whose children are
// already interned: leaf data must match and child pointers must be
// identical.
func shallowEqual(a, b *Expr) bool {
	if a.op != b.op || a.w != b.w {
		return false
	}
	if a.op == OpInvalid {
		if (a.varr != nil) != (b.varr != nil) {
			return false
		}
		if a.varr != nil {
			return *a.varr == *b.varr
		}
		return a.val == b.val
	}
	if len(a.kids) != len(b.kids) {
		return false
	}
	for i := range a.kids {
		if a.kids[i] != b.kids[i] {
			return false
		}
	}
	return true
}

// termBuilder is one construction path for raw (unsimplified) terms.
type termBuilder struct {
	konst func(v uint64, w Width) *Expr
	leaf  func(v Var) *Expr
	node  func(op Op, w Width, kids ...*Expr) *Expr
}

var (
	probingPath = termBuilder{newConst, NewVar, newNode}

	referencePath = termBuilder{
		konst: func(v uint64, w Width) *Expr {
			v &= w.Mask()
			return intern(&Expr{w: w, val: v, hash: constHash(v, w)})
		},
		leaf: func(v Var) *Expr {
			vv := v
			return intern(&Expr{w: v.W, varr: &vv, hash: varHash(v)})
		},
		node: func(op Op, w Width, kids ...*Expr) *Expr {
			return intern(&Expr{op: op, w: w, kids: kids, hash: nodeHash(op, w, kids)})
		},
	}
)

// rawTerm builds a random width-8 term through b, driven by r, without the
// constructors' folding: constants below and above 255, variables private
// to this test (so the first builder of each one misses), and every node
// arity.
func rawTerm(b termBuilder, r *rand.Rand, depth int) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return b.leaf(Var{Buf: "probe-x", Idx: r.Intn(4), W: W8})
		case 1:
			return b.konst(uint64(r.Intn(300)), W8)
		case 2:
			return b.node(OpTrunc, W8, b.konst(uint64(r.Intn(70000)), W16))
		default:
			return b.node(OpTrunc, W8, b.leaf(Var{Buf: "probe-y", W: W32}))
		}
	}
	x := rawTerm(b, r, depth-1)
	switch r.Intn(6) {
	case 0:
		return b.node(OpNot, W8, x)
	case 1:
		return b.node(OpTrunc, W8, b.node(OpZExt, W64, x))
	case 2:
		c := b.node(OpUlt, W1, x, rawTerm(b, r, depth-1))
		return b.node(OpIte, W8, c, x, rawTerm(b, r, depth-1))
	default:
		ops := []Op{OpAdd, OpMul, OpXor, OpAnd, OpShl}
		return b.node(ops[r.Intn(len(ops))], W8, x, rawTerm(b, r, depth-1))
	}
}

// checkCanonical walks e and requires every node to be the one the reference
// path returns for a fresh copy of it: the probing path never registered a
// duplicate.
func checkCanonical(t *testing.T, e *Expr, seen map[*Expr]bool) {
	t.Helper()
	if seen[e] {
		return
	}
	seen[e] = true
	cp := &Expr{op: e.op, w: e.w, val: e.val, kids: e.kids, hash: e.hash}
	if e.varr != nil {
		v := *e.varr
		cp.varr = &v
	}
	if got := intern(cp); got != e {
		t.Fatalf("%v: reference interns a fresh copy to a different node %p, want %p", e, got, e)
	}
	checkVarSet(t, e)
	for _, k := range e.kids {
		checkCanonical(t, k, seen)
	}
}

// TestInternProbeMatchesReference builds the same random terms through the
// probing constructors and through the reference intern path from 8
// goroutines at once, half on each path and each in its own order, so hits
// and misses of both paths race on the shared table. Every goroutine must
// get identical pointers, IDs and variable sets for every term.
func TestInternProbeMatchesReference(t *testing.T) {
	const (
		workers = 8
		terms   = 60
	)
	results := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := probingPath
			if w%2 == 1 {
				b = referencePath
			}
			out := make([]*Expr, terms)
			for _, seed := range rand.New(rand.NewSource(int64(w))).Perm(terms) {
				out[seed] = rawTerm(b, rand.New(rand.NewSource(int64(seed))), 5)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	seen := map[*Expr]bool{}
	for i, e := range results[0] {
		checkCanonical(t, e, seen)
		for w := 1; w < workers; w++ {
			o := results[w][i]
			if o != e || o.ID() != e.ID() {
				t.Fatalf("term %d: worker %d got %p (id %d), worker 0 got %p (id %d)", i, w, o, o.ID(), e, e.ID())
			}
			ol, el := o.VarLeaves(), e.VarLeaves()
			if len(ol) != len(el) {
				t.Fatalf("term %d: worker %d variable set %v, worker 0 %v", i, w, ol, el)
			}
			for j := range ol {
				if ol[j] != el[j] {
					t.Fatalf("term %d: worker %d variable set %v, worker 0 %v", i, w, ol, el)
				}
			}
		}
	}
}

// TestInternHitsDoNotAllocate: once a term is interned, building it again
// allocates nothing, for constants below and above 255 at every width,
// variables, and nodes of every arity.
func TestInternHitsDoNotAllocate(t *testing.T) {
	x := NewVar(Var{Buf: "alloc-x", W: W8})
	y := NewVar(Var{Buf: "alloc-y", W: W8})
	c := Ult(x, y)
	var sink *Expr
	cases := map[string]func(){
		"var":  func() { sink = NewVar(Var{Buf: "alloc-x", W: W8}) },
		"add":  func() { sink = Add(x, y) },
		"not":  func() { sink = Not(Ult(x, y)) },
		"ite":  func() { sink = Ite(c, x, y) },
		"zext": func() { sink = ZExt(x, W32) },
	}
	for _, w := range []Width{W1, W8, W16, W32, W64} {
		w := w
		cases[fmt.Sprintf("const-small-w%d", w)] = func() { sink = Const(200, w) }
		cases[fmt.Sprintf("const-large-w%d", w)] = func() { sink = Const(1<<40|12345, w) }
	}
	for name, f := range cases {
		f() // intern once; every later call is a hit
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", name, n)
		}
	}
	_ = sink
}

// TestInternProbeRejectsHashTwins plants nodes under the hash of a term that
// is not interned yet, each differing from it in one field, so the probe
// meets them first. Real hash collisions are too rare for the random tests
// to reach the probe's field comparisons; the planted twins reach each one.
// Every constructor must skip all twins and intern the term itself. The
// twins are taken out of the table again when the test ends, so the shared
// table only ever holds nodes the constructors built.
func TestInternProbeRejectsHashTwins(t *testing.T) {
	twins := map[*Expr]bool{}
	plant := func(h uint64, e *Expr) {
		e.hash = h
		twins[lockShard(h).insert(e)] = true
	}
	t.Cleanup(func() {
		for e := range twins {
			sh := lockShard(e.hash)
			sh.m[e.hash] = slices.DeleteFunc(sh.m[e.hash], func(c *Expr) bool { return c == e })
			sh.mu.Unlock()
			internSize.Add(-1)
		}
		for _, e := range allInterned() {
			if twins[e] {
				t.Errorf("planted twin %v still interned", e)
			}
		}
	})
	x := NewVar(Var{Buf: "twin-x", W: W8})
	y := NewVar(Var{Buf: "twin-y", W: W8})
	x64 := ZExt(x, W64)

	const cv = 0x7a11_0000_0000_0001
	h := constHash(cv, W64)
	plant(h, &Expr{w: W64, val: cv + 1})
	plant(h, &Expr{w: W32, val: cv})
	plant(h, &Expr{w: W64, val: cv, varr: &Var{Buf: "twin-c", W: W64}})
	plant(h, &Expr{op: OpNot, w: W64, val: cv, kids: []*Expr{x64}})
	if c := Const(cv, W64); twins[c] || !c.IsConst() || c.w != W64 || c.val != cv {
		t.Errorf("Const(%#x, 64) = %v, a planted twin", uint64(cv), c)
	}

	v := Var{Buf: "twin-v", Idx: 3, W: W16}
	h = varHash(v)
	plant(h, &Expr{w: W16})
	plant(h, &Expr{w: W16, varr: &Var{Buf: "twin-w", Idx: 3, W: W16}})
	plant(h, &Expr{w: W16, varr: &Var{Buf: "twin-v", Idx: 4, W: W16}})
	plant(h, &Expr{w: W16, varr: &Var{Buf: "twin-v", Idx: 3, W: W32}})
	if l := NewVar(v); twins[l] || !l.IsVar() || l.VarRef() != v {
		t.Errorf("NewVar(%v) = %v, a planted twin", v, l)
	}

	h = nodeHash(OpXor, W8, []*Expr{x, y})
	plant(h, &Expr{op: OpAnd, w: W8, kids: []*Expr{x, y}})
	plant(h, &Expr{op: OpXor, w: W16, kids: []*Expr{x, y}})
	plant(h, &Expr{op: OpXor, w: W8, kids: []*Expr{x, x}})
	plant(h, &Expr{op: OpXor, w: W8, kids: []*Expr{y, y}})
	plant(h, &Expr{op: OpXor, w: W8, kids: []*Expr{x}})
	plant(h, &Expr{op: OpXor, w: W8, kids: []*Expr{x, y, y}})
	plant(h, &Expr{w: W8})
	if n := Xor(x, y); twins[n] || n.op != OpXor || n.w != W8 || len(n.kids) != 2 || n.kids[0] != x || n.kids[1] != y {
		t.Errorf("Xor(x, y) = %v, a planted twin", n)
	}
}
