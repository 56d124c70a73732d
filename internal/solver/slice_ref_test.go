package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"chef/internal/symexpr"
)

// exprVars returns e's distinct variables in (Buf, Idx, W) order.
func exprVars(e *symexpr.Expr) []symexpr.Var {
	var vs []symexpr.Var
	for _, l := range e.VarLeaves() {
		vs = append(vs, l.VarRef())
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
	return vs
}

// refSlice is the slicer's reference: the stateless whole-path
// implementation the solver used before slicing became prefix-incremental,
// kept as it was but for its name, its comments, and exprVars in place of
// the removed map-based symexpr.Vars. Every query rebuilds the union-find and
// re-evaluates every group under base.
// refSlice partitions constraints into groups connected by shared variables and
// returns (groups that base does not satisfy, values from base for the
// variables of satisfied groups).
func refSlice(pc []*symexpr.Expr, base symexpr.Assignment) ([]*symexpr.Expr, symexpr.Assignment) {
	// Union-find over constraint indices keyed through variables.
	parent := make([]int, len(pc))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	varOwner := map[symexpr.Var]int{}
	varsOf := make([][]symexpr.Var, len(pc))
	for i, c := range pc {
		varsOf[i] = exprVars(c)
		for _, v := range varsOf[i] {
			if o, ok := varOwner[v]; ok {
				union(i, o)
			} else {
				varOwner[v] = i
			}
		}
	}
	groups := map[int][]int{}
	for i := range pc {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var keepIdx []int
	kept := symexpr.Assignment{}
	// Deterministic group order.
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		idxs := groups[r]
		satByBase := true
		for _, i := range idxs {
			if !symexpr.EvalBool(pc[i], base) {
				satByBase = false
				break
			}
		}
		if satByBase {
			for _, i := range idxs {
				for _, v := range varsOf[i] {
					kept[v] = base[v] & v.W.Mask()
				}
			}
		} else {
			keepIdx = append(keepIdx, idxs...)
		}
	}
	// Surviving constraints keep their original path order; the solver
	// canonicalizes them anyway.
	sort.Ints(keepIdx)
	unsatisfied := make([]*symexpr.Expr, 0, len(keepIdx))
	for _, i := range keepIdx {
		unsatisfied = append(unsatisfied, pc[i])
	}
	return unsatisfied, kept
}

// checkSlice runs one query through sl and through the constant filter and
// the reference, and fails on any difference in the false-constant status or
// kept, or between the slicer's canon and canonicalize of the reference's
// unsatisfied constraints.
func checkSlice(t testing.TB, sl *slicer, pc []*symexpr.Expr, base symexpr.Assignment) {
	t.Helper()
	var work []*symexpr.Expr
	wantFalse := false
	for _, c := range pc {
		switch {
		case !c.IsConst():
			work = append(work, c)
		case c.ConstVal() == 0:
			wantFalse = true
		}
	}
	gotFalse, gotC := sl.slice(pc, base)
	if gotFalse != wantFalse {
		t.Fatalf("false-constant status %v, want %v on pc %v", gotFalse, wantFalse, pc)
	}
	if gotFalse {
		return
	}
	wantU, wantK := refSlice(work, base)
	if gotK := sl.keep(nil); !reflect.DeepEqual(gotK, wantK) {
		t.Fatalf("kept differs on pc %v base %v:\n got %v\nwant %v", pc, base, gotK, wantK)
	}
	if wantC := canonicalize(append([]*symexpr.Expr(nil), wantU...)); !sameCanon(gotC, wantC) {
		t.Fatalf("canon differs on pc %v base %v:\n got %v\nwant %v", pc, base, gotC, wantC)
	}
}

// TestSliceMatchesReference drives one slicer through a random query stream
// and checks every answer against the reference: paths that extend, retreat
// and re-extend; flipped constraints; duplicate and constant constraints;
// Maximize-style probes appended to a path; earlier queries replayed out of
// path order; and bases that satisfy the path, break one variable of it,
// assign only some variables, or are empty.
func TestSliceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var vars []*symexpr.Expr
	for i := 0; i < 5; i++ {
		vars = append(vars, symexpr.NewVar(symexpr.Var{Buf: "a", Idx: i, W: symexpr.W8}))
	}
	wide := symexpr.NewVar(symexpr.Var{Buf: "n", W: symexpr.W16})
	k8 := func() *symexpr.Expr { return symexpr.Const(uint64(r.Intn(256)), symexpr.W8) }
	randBase := func() symexpr.Assignment {
		b := symexpr.Assignment{}
		for _, v := range append(vars, wide) {
			if r.Intn(5) > 0 {
				b[v.VarRef()] = r.Uint64() // unmasked on purpose: slicing masks
			}
		}
		return b
	}
	randConstraint := func() *symexpr.Expr {
		x, y := vars[r.Intn(len(vars))], vars[r.Intn(len(vars))]
		switch r.Intn(7) {
		case 0:
			return symexpr.Eq(x, k8())
		case 1:
			return symexpr.Ult(x, k8())
		case 2:
			return symexpr.Ult(symexpr.Add(x, y), k8())
		case 3:
			return symexpr.Ule(symexpr.ZExt(x, symexpr.W16), wide)
		case 4:
			return symexpr.Eq(symexpr.And(x, k8()), symexpr.And(y, k8()))
		case 5:
			return symexpr.Bool(r.Intn(4) > 0)
		}
		return symexpr.Ult(wide, symexpr.Const(uint64(r.Intn(1<<16)), symexpr.W16))
	}

	var sl slicer
	var path []*symexpr.Expr
	var history [][]*symexpr.Expr
	hidden := randBase()
	for q := 0; q < 4000; q++ {
		if r.Intn(50) == 0 {
			hidden = randBase() // a new run: its assignment becomes the base
		}
		var pc []*symexpr.Expr
		switch k := r.Intn(10); {
		case k == 0 && len(history) > 0:
			pc = history[r.Intn(len(history))]
		case k == 1:
			probe := symexpr.Ule(symexpr.Const(uint64(r.Intn(256)), symexpr.W8), vars[r.Intn(len(vars))])
			pc = append(append([]*symexpr.Expr(nil), path...), probe)
		default:
			if len(path) > 80 || r.Intn(3) == 0 {
				path = path[:r.Intn(len(path)+1)]
			}
			for n := 1 + r.Intn(3); n > 0; n-- {
				c := randConstraint()
				if len(path) > 0 && r.Intn(3) == 0 {
					c = path[r.Intn(len(path))]
				} else if !symexpr.EvalBool(c, hidden) {
					c = symexpr.Not(c)
				}
				path = append(path, c)
			}
			pc = append([]*symexpr.Expr(nil), path...)
			if r.Intn(2) == 0 {
				pc[len(pc)-1] = symexpr.Not(pc[len(pc)-1]) // the flipped branch
			}
		}
		history = append(history, pc)
		base := hidden
		switch r.Intn(6) {
		case 0:
			base = randBase()
		case 1:
			base = hidden.Clone()
			base[vars[r.Intn(len(vars))].VarRef()] ^= 1 << uint(r.Intn(8))
		case 2:
			base = symexpr.Assignment{}
		}
		checkSlice(t, &sl, pc, base)
	}
}

// varFree returns the node a <u b over two 8-bit constants. The
// constructors fold such a node to a constant, but the expression decoder
// (which the persistent store uses) builds it as is: a constraint with no
// variables that is not a literal constant.
func varFree(a, b uint64) *symexpr.Expr {
	x := symexpr.NewVar(symexpr.Var{Buf: "free", W: symexpr.W8})
	enc := symexpr.AppendExpr(nil, symexpr.Ult(x, symexpr.Const(1, symexpr.W8)))[:4] // node tag, op, width, arity
	enc = symexpr.AppendExpr(enc, symexpr.Const(a, symexpr.W8))
	enc = symexpr.AppendExpr(enc, symexpr.Const(b, symexpr.W8))
	e, _, err := symexpr.DecodeExpr(enc)
	if err != nil || e.IsConst() || len(e.VarLeaves()) > 0 {
		panic(fmt.Sprintf("varFree(%d, %d) = %v, %v", a, b, e, err))
	}
	return e
}

// FuzzSlicer decodes bytes into a stream of queries on one slicer — pushes
// of fresh, duplicate, true-constant, false-constant and variable-free
// constraints, pops to a shorter path before regrowing, and bases that
// change or drop one variable — and checks every answer against the
// constant filter and the reference.
func FuzzSlicer(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{8, 40, 16, 200, 3, 12, 90, 14, 1, 0, 33, 2, 250, 21, 7, 5, 2})
	f.Add([]byte("slicer: push pop rebase push push dup pop"))
	var vars []*symexpr.Expr
	for i := 0; i < 4; i++ {
		vars = append(vars, symexpr.NewVar(symexpr.Var{Buf: "f", Idx: i, W: symexpr.W8}))
	}
	wide := symexpr.NewVar(symexpr.Var{Buf: "g", W: symexpr.W16})
	all := append(vars[:len(vars):len(vars)], wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &byteDriver{data: data}
		k8 := func() *symexpr.Expr { return symexpr.Const(uint64(d.next()), symexpr.W8) }
		v := func() *symexpr.Expr { return vars[int(d.next())%len(vars)] }
		base := symexpr.Assignment{}
		for i, x := range vars {
			base[x.VarRef()] = uint64(i * 37)
		}
		var sl slicer
		var path []*symexpr.Expr
		for q := 0; q < 64 && d.pos < len(data); q++ {
			op := d.next()
			switch op % 8 {
			case 0:
				path = append(path, symexpr.Eq(v(), k8()))
			case 1:
				path = append(path, symexpr.Ult(v(), k8()))
			case 2:
				path = append(path, symexpr.Ult(symexpr.Add(v(), v()), k8()))
			case 3:
				path = append(path, symexpr.Ule(symexpr.ZExt(v(), symexpr.W16), wide))
			case 4:
				if b := d.next(); b%3 == 0 {
					path = append(path, varFree(uint64(d.next()), uint64(d.next())))
				} else {
					path = append(path, symexpr.Bool(b%3 == 1))
				}
			case 5:
				if len(path) > 0 {
					path = append(path, path[int(d.next())%len(path)])
				}
			case 6:
				path = path[:int(d.next())%(len(path)+1)]
			case 7:
				base = base.Clone()
				x := all[int(d.next())%len(all)].VarRef()
				if b := d.next(); b%5 == 0 {
					delete(base, x)
				} else {
					base[x] = uint64(b) << (b % 3)
				}
			}
			if op&8 != 0 && len(path) > 0 {
				path[len(path)-1] = symexpr.Not(path[len(path)-1])
			}
			checkSlice(t, &sl, path, base)
		}
	})
}

// sliceQuery is one recorded (pc, base) pair with the solver's answer.
type sliceQuery struct {
	pc   []*symexpr.Expr
	base symexpr.Assignment
	res  Result
}

// recordDeepPath records the first n queries of the JSON-DFS-shaped stream
// (see deeppath_test.go) at 24 rounds: paths of several hundred
// constraints over six bytes, as on the engine's deep DFS workload.
func recordDeepPath(n int) []sliceQuery {
	var qs []sliceQuery
	deepPathDFS(New(Options{}), 24, n, func(q Query, res Result, _ symexpr.Assignment) {
		qs = append(qs, sliceQuery{append([]*symexpr.Expr(nil), q.PC...), q.Base, res})
	})
	return qs
}

// TestSliceDeepPathMatchesReference replays the recorded deep stream
// through a fresh slicer, first in exploration order and then shuffled, and
// checks every answer against the reference.
func TestSliceDeepPathMatchesReference(t *testing.T) {
	qs := recordDeepPath(600)
	if len(qs) < 600 || len(qs[len(qs)/2].pc) < 300 {
		t.Fatalf("stream too small: %d queries, mid path %d", len(qs), len(qs[len(qs)/2].pc))
	}
	var sl slicer
	for _, q := range qs {
		checkSlice(t, &sl, q.pc, q.base)
	}
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for _, q := range qs[:200] {
		checkSlice(t, &sl, q.pc, q.base)
	}
}

// BenchmarkSliceDeepPath times the slicing front end alone over the
// recorded deep stream, one slicer per pass as one solver sees it, doing
// what check does: kept values only for queries that came back Sat. It is
// the micro regression check for the front end's per-query cost.
func BenchmarkSliceDeepPath(b *testing.B) {
	qs := recordDeepPath(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sl slicer
		for _, q := range qs {
			sl.slice(q.pc, q.base)
			if q.res == Sat {
				sl.keep(nil)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}
