package solver

import (
	"sort"

	"chef/internal/symexpr"
)

// slicer is the constraint-independence front end: it groups a path
// condition's constraints by shared variables, keeps the groups the base
// satisfies at their base values, and passes only the rest on.
//
// Engine queries are the parent run's path plus one flipped constraint, so
// consecutive queries share almost all of their pointer prefix. The slicer
// keeps the last query as a stack: a query pops to the common prefix and
// pushes the new suffix. The costly work happens once per push — reading
// the constraint's variable set (cached at intern time), its unions in an
// undoable union-find over variables, its first-occurrence flag — and each
// slot caches its truth under the base, dropped only when the base changes
// one of its variables. Per query there remains a pass of integer work over
// the stack and the sort of the unsatisfied groups' distinct constraints.
//
// The result is a pure function of (pc, base): slots memoize only functions
// of their constraint and the base, and grouping, first occurrences and
// output order depend on pc alone. Interning-ID order only decides which
// variable becomes a union-find root, which no output depends on.
type slicer struct {
	slots []slot
	seen  map[*symexpr.Expr]bool // constraints on the stack

	// Per-variable state, indexed by a dense number assigned on first sight.
	num    map[*symexpr.Expr]int32 // variable leaf -> number
	leaves []*symexpr.Expr         // number -> variable leaf
	parent []int32                 // union-find (by size, no compression: pops undo unions)
	size   []int32
	occ    []int32  // occurrences in the stack's constraints
	val    []uint64 // masked base value the slots' truth flags refer to
	bad    []uint32 // == stamp: the group rooted here has a false constraint

	nums  []int32 // slot variable numbers; slot i owns nums[n0:n1]
	undo  []int32 // roots attached by unions, in push order
	stamp uint32
	roots []int32 // per-query scratch: each slot's group root
	out   []*symexpr.Expr
}

type slot struct {
	c     *symexpr.Expr
	n0    int32 // variable numbers in nums[n0:n1]
	n1    int32
	u0    int32 // first undo record
	first bool  // c does not occur lower in the stack
	truth int8  // EvalBool(c, base): unknown, true or false
}

const (
	truthUnknown int8 = iota
	truthTrue
	truthFalse
)

func (sl *slicer) find(x int32) int32 {
	for sl.parent[x] != x {
		x = sl.parent[x]
	}
	return x
}

// slice returns the constraints of pc whose group base does not satisfy, in
// path order, their distinct constraints in canonical order (exactly
// canonicalize of the former), and the base values of every variable of the
// satisfied groups. The first slice is scratch owned by the slicer and is
// valid until the next call.
func (sl *slicer) slice(pc []*symexpr.Expr, base symexpr.Assignment) (unsatisfied, canon []*symexpr.Expr, kept symexpr.Assignment) {
	if sl.num == nil {
		sl.num = map[*symexpr.Expr]int32{}
		sl.seen = map[*symexpr.Expr]bool{}
	}
	n := 0
	for n < len(sl.slots) && n < len(pc) && sl.slots[n].c == pc[n] {
		n++
	}
	for len(sl.slots) > n {
		sl.pop()
	}
	sl.stamp++
	sl.rebase(base)
	for _, c := range pc[n:] {
		sl.push(c, base)
	}

	// A slot's group is the root of its first variable; a variable-free
	// constraint is a group of its own (root -1). A group is bad when one of
	// its constraints is false; slots of groups not yet known bad are
	// evaluated if their truth is unknown.
	roots := sl.roots[:0]
	for i := range sl.slots {
		s := &sl.slots[i]
		r := int32(-1)
		if s.n0 < s.n1 {
			r = sl.find(sl.nums[s.n0])
		}
		roots = append(roots, r)
		if s.truth == truthUnknown && (r < 0 || sl.bad[r] != sl.stamp) {
			s.truth = truthTrue
			if !symexpr.EvalBool(s.c, base) {
				s.truth = truthFalse
			}
		}
		if s.truth == truthFalse && r >= 0 {
			sl.bad[r] = sl.stamp
		}
	}
	sl.roots = roots

	sl.out = sl.out[:0]
	for i, r := range roots {
		s := &sl.slots[i]
		if r < 0 && s.truth == truthTrue || r >= 0 && sl.bad[r] != sl.stamp {
			continue
		}
		sl.out = append(sl.out, s.c)
		if s.first {
			canon = append(canon, s.c)
		}
	}
	sort.Slice(canon, func(i, j int) bool { return symexpr.Compare(canon[i], canon[j]) < 0 })
	kept = symexpr.Assignment{}
	for d, l := range sl.leaves {
		if sl.occ[d] > 0 && sl.bad[sl.find(int32(d))] != sl.stamp {
			kept[l.VarRef()] = sl.val[d]
		}
	}
	return sl.out, canon, kept
}

// baseVal is v's value under base as slicing sees it: masked, zero when
// unassigned (exactly what EvalBool reads).
func baseVal(l *symexpr.Expr, base symexpr.Assignment) uint64 {
	return base[l.VarRef()] & l.Width().Mask()
}

// rebase moves the stack's truth flags to a new base: a slot's flag is
// dropped only when the base changes the value of one of its variables.
func (sl *slicer) rebase(base symexpr.Assignment) {
	changed := false
	for d, l := range sl.leaves {
		if sl.occ[d] == 0 {
			continue
		}
		if v := baseVal(l, base); v != sl.val[d] {
			sl.val[d] = v
			sl.bad[d] = sl.stamp // reused as the changed mark until the flags are fixed
			changed = true
		}
	}
	if !changed {
		return
	}
	for i := range sl.slots {
		s := &sl.slots[i]
		for _, d := range sl.nums[s.n0:s.n1] {
			if sl.bad[d] == sl.stamp {
				s.truth = truthUnknown
				break
			}
		}
	}
	sl.stamp++
}

func (sl *slicer) push(c *symexpr.Expr, base symexpr.Assignment) {
	s := slot{c: c, n0: int32(len(sl.nums)), u0: int32(len(sl.undo)), first: !sl.seen[c]}
	for _, l := range c.VarLeaves() {
		d, ok := sl.num[l]
		if !ok {
			d = int32(len(sl.leaves))
			sl.num[l] = d
			sl.leaves = append(sl.leaves, l)
			sl.parent = append(sl.parent, d)
			sl.size = append(sl.size, 1)
			sl.occ = append(sl.occ, 0)
			sl.val = append(sl.val, 0)
			sl.bad = append(sl.bad, 0)
		}
		if sl.occ[d] == 0 {
			sl.val[d] = baseVal(l, base)
		}
		sl.occ[d]++
		sl.nums = append(sl.nums, d)
		if a, b := sl.find(sl.nums[s.n0]), sl.find(d); a != b {
			if sl.size[a] < sl.size[b] {
				a, b = b, a
			}
			sl.parent[b] = a
			sl.size[a] += sl.size[b]
			sl.undo = append(sl.undo, b)
		}
	}
	s.n1 = int32(len(sl.nums))
	if s.first {
		sl.seen[c] = true
	}
	sl.slots = append(sl.slots, s)
}

func (sl *slicer) pop() {
	s := sl.slots[len(sl.slots)-1]
	sl.slots = sl.slots[:len(sl.slots)-1]
	for i := len(sl.undo) - 1; i >= int(s.u0); i-- {
		b := sl.undo[i]
		a := sl.parent[b]
		sl.size[a] -= sl.size[b]
		sl.parent[b] = b
	}
	sl.undo = sl.undo[:s.u0]
	for _, d := range sl.nums[s.n0:s.n1] {
		sl.occ[d]--
	}
	sl.nums = sl.nums[:s.n0]
	if s.first {
		delete(sl.seen, s.c)
	}
}
