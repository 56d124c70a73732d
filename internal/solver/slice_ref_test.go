package solver

import (
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
// kept verbatim but for its name and exprVars in place of the removed
// map-based symexpr.Vars. Every query rebuilds the union-find and
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
	// Surviving constraints keep their original path order: the oneshot
	// backend canonicalizes anyway, and the incremental backend's prefix
	// reuse depends on consecutive queries sharing a pointer prefix, which
	// path order preserves and group order would shuffle.
	sort.Ints(keepIdx)
	unsatisfied := make([]*symexpr.Expr, 0, len(keepIdx))
	for _, i := range keepIdx {
		unsatisfied = append(unsatisfied, pc[i])
	}
	return unsatisfied, kept
}

// checkSlice runs one query through sl and through the reference and fails
// on any difference in (unsatisfied, kept), or between the slicer's canon
// and canonicalize of the reference's unsatisfied constraints.
func checkSlice(t testing.TB, sl *slicer, pc []*symexpr.Expr, base symexpr.Assignment) {
	t.Helper()
	wantU, wantK := refSlice(pc, base)
	gotU, gotC, gotK := sl.slice(pc, base)
	if !sameCanon(gotU, wantU) {
		t.Fatalf("unsatisfied differs on pc %v base %v:\n got %v\nwant %v", pc, base, gotU, wantU)
	}
	if !reflect.DeepEqual(gotK, wantK) {
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

// sliceQuery is one recorded (pc, base) pair.
type sliceQuery struct {
	pc   []*symexpr.Expr
	base symexpr.Assignment
}

// recordDeepPath records the first n queries of the JSON-DFS-shaped stream
// (see deeppath_test.go) at 24 rounds: paths of several hundred
// constraints over six bytes, as on the engine's deep DFS workload.
func recordDeepPath(n int) []sliceQuery {
	var qs []sliceQuery
	deepPathDFS(New(Options{}), 24, n, func(q Query, _ Result, _ symexpr.Assignment) {
		qs = append(qs, sliceQuery{append([]*symexpr.Expr(nil), q.PC...), q.Base})
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
// recorded deep stream, one slicer per pass as one solver sees it; it is
// the micro regression check for the front end's per-query cost.
func BenchmarkSliceDeepPath(b *testing.B) {
	qs := recordDeepPath(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sl slicer
		for _, q := range qs {
			sl.slice(q.pc, q.base)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}
