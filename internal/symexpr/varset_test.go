package symexpr

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refVars is the reference variable walk: a plain recursive traversal with a
// map for deduplication, independent of the sets cached at intern time.
func refVars(e *Expr, seen map[Var]bool, dst []Var) []Var {
	if e.IsVar() {
		if !seen[*e.varr] {
			seen[*e.varr] = true
			dst = append(dst, *e.varr)
		}
		return dst
	}
	for _, k := range e.kids {
		dst = refVars(k, seen, dst)
	}
	return dst
}

// Vars returns the distinct variables of e, sorted by (Buf, Idx, W), by the
// reference walk.
func Vars(e *Expr) []Var {
	vs := refVars(e, map[Var]bool{}, nil)
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
	return vs
}

// checkVarSet verifies e's cached set: the reference variables exactly,
// distinct, sorted by interning ID, nil iff variable-free.
func checkVarSet(t *testing.T, e *Expr) {
	t.Helper()
	want := Vars(e)
	leaves := e.VarLeaves()
	if (leaves == nil) != (len(want) == 0) || e.HasSymbols() != (len(want) > 0) {
		t.Fatalf("%v: leaves %v, reference %v", e, leaves, want)
	}
	for i, l := range leaves {
		if !l.IsVar() {
			t.Fatalf("%v: non-leaf %v in variable set", e, l)
		}
		if i > 0 && leaves[i-1].ID() >= l.ID() {
			t.Fatalf("%v: variable set not strictly ID-sorted: %v", e, leaves)
		}
	}
	got := make([]Var, len(leaves))
	for i, l := range leaves {
		got[i] = l.VarRef()
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
	if len(got) != len(want) {
		t.Fatalf("%v: vars %v, reference %v", e, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v: vars %v, reference %v", e, got, want)
		}
	}
}

// allInterned snapshots every node interned so far in this process.
func allInterned() []*Expr {
	var out []*Expr
	for i := range internShards {
		sh := &internShards[i]
		sh.mu.Lock()
		for _, b := range sh.m {
			out = append(out, b...)
		}
		sh.mu.Unlock()
	}
	return out
}

// randTerm builds a random term over a small pool of variables of several
// widths, mixing every operator class: constants, leaves, width
// conversions, ite, and subterms reused from earlier draws so the DAG
// shares nodes.
func randTerm(r *rand.Rand, pool *[]*Expr, depth int) *Expr {
	widths := []Width{W8, W16, W32}
	w := widths[r.Intn(len(widths))]
	if depth == 0 || r.Intn(5) == 0 {
		switch r.Intn(3) {
		case 0:
			return Const(r.Uint64(), w)
		case 1:
			if len(*pool) > 0 {
				return (*pool)[r.Intn(len(*pool))]
			}
		}
		return NewVar(Var{Buf: []string{"a", "b", "c"}[r.Intn(3)], Idx: r.Intn(4), W: w})
	}
	x := randTerm(r, pool, depth-1)
	var e *Expr
	switch r.Intn(7) {
	case 0:
		e = Add(x, fit(randTerm(r, pool, depth-1), x.Width()))
	case 1:
		e = Mul(x, fit(randTerm(r, pool, depth-1), x.Width()))
	case 2:
		e = Ult(x, fit(randTerm(r, pool, depth-1), x.Width()))
	case 3:
		e = Ite(Eq(x, fit(randTerm(r, pool, depth-1), x.Width())), x, fit(randTerm(r, pool, depth-1), x.Width()))
	case 4:
		e = Not(x)
	default:
		e = fit(x, widths[r.Intn(len(widths))])
	}
	*pool = append(*pool, e)
	return e
}

// fit converts e to width w with the width-conversion operators.
func fit(e *Expr, w Width) *Expr {
	switch {
	case e.Width() < w:
		if e.Width()%2 == 0 {
			return ZExt(e, w)
		}
		return SExt(e, w)
	case e.Width() > w:
		return Trunc(e, w)
	}
	return e
}

// TestVarSetsMatchReferenceWalk: every node interned in the process — the
// random terms below plus whatever earlier tests built — carries exactly
// the variable set a reference walk finds.
func TestVarSetsMatchReferenceWalk(t *testing.T) {
	x := NewVar(Var{Buf: "x", W: W8})
	y := NewVar(Var{Buf: "y", Idx: 3, W: W8})
	shared := Add(Mul(x, y), x)
	checkVarSet(t, Const(4, W8))
	checkVarSet(t, x)
	checkVarSet(t, Add(shared, Neg(shared)))
	checkVarSet(t, ZExt(Trunc(SExt(shared, W32), W16), W64))
	if l := Add(shared, Const(1, W8)).VarLeaves(); &l[0] != &shared.VarLeaves()[0] {
		t.Error("a node whose variables one child covers must share that child's set")
	}

	r := rand.New(rand.NewSource(7))
	var pool []*Expr
	for i := 0; i < 2000; i++ {
		randTerm(r, &pool, 5)
	}
	all := allInterned()
	if len(all) < 1000 {
		t.Fatalf("only %d interned nodes", len(all))
	}
	for _, e := range all {
		checkVarSet(t, e)
	}
}

// TestVarSetsConcurrentConstruction builds the same random terms from 8
// goroutines at once (run under -race in CI): the interner must hand every
// goroutine the same node, with a set equal to the reference walk's.
func TestVarSetsConcurrentConstruction(t *testing.T) {
	const workers = 8
	built := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(99))
			var pool []*Expr
			for i := 0; i < 300; i++ {
				built[g] = append(built[g], randTerm(r, &pool, 5))
			}
		}(g)
	}
	wg.Wait()
	for i, e := range built[0] {
		for g := 1; g < workers; g++ {
			if built[g][i] != e {
				t.Fatalf("term %d: goroutines %d and 0 got different nodes", i, g)
			}
		}
		checkVarSet(t, e)
	}
}
