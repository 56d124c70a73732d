package solver

import (
	"slices"

	"chef/internal/symexpr"
)

// slicer is the constraint-independence front end: it groups a path
// condition's constraints by shared variables, keeps the groups the base
// satisfies at their base values, and passes only the rest on. It also
// applies the constant filter: a literally true constraint is dropped and a
// literally false one decides the query.
//
// Engine queries are the parent run's path plus one flipped constraint, so
// consecutive queries share almost all of their pointer prefix. The slicer
// keeps the last query as a stack: a query pops to the common prefix and
// pushes the new suffix, and every structure below is updated by the pushes,
// the pops and the variables whose base value changed — never by a pass over
// the whole stack:
//
//   - an undoable union-find over variables groups the constraints;
//   - each union-find root owns a circular ring of its group's variables,
//     spliced by one swap on union and split by the same swap on undo;
//   - each variable lists the stack's slots that mention it, and the
//     first-occurrence slots whose first variable it is;
//   - each slot holds its truth under the base, and the false ones form an
//     unordered set.
//
// A query then costs the prefix compare, a base lookup per live variable,
// a walk over the false groups' rings and first occurrences, and the sort of
// their distinct constraints. The path-order list (for the incremental
// backend) and the kept values (for Sat answers) are built only on demand.
//
// The result is a pure function of (pc, base): slots memoize only functions
// of their constraint and the base, grouping and first occurrences depend on
// pc alone, and the canonical sequence is sorted. Interning-ID order and the
// order of the unordered sets only decide which variable becomes a
// union-find root and in which order groups are walked, which no output
// depends on.
type slicer struct {
	cs     []*symexpr.Expr // the stack's constraints, described by slots
	slots  []slot
	seen   map[*symexpr.Expr]bool  // constraints on the stack
	num    map[*symexpr.Expr]int32 // variable leaf -> number
	vars   []svar                  // indexed by a dense number assigned on first sight
	live   []int32                 // variables with occurrences on the stack, unordered
	nums   []int32                 // slot variable numbers; slot i owns nums[n0:n1]
	undo   []int32                 // roots attached by unions, in push order
	falses []int32                 // slots false under the base, unordered

	falseConsts int // literally false constraints on the stack
	stamp       uint32
	canon, out  []*symexpr.Expr
}

// slot i describes the stack's constraint cs[i].
type slot struct {
	n0      int32 // variable numbers in nums[n0:n1]
	n1      int32
	u0      int32  // first undo record
	fpos    int32  // index in falses while false
	mark    uint32 // == stamp: re-evaluated by this query's rebase
	first   bool   // cs[i] is symbolic and does not occur lower in the stack
	isFalse bool   // cs[i] is symbolic and false under the base
}

type svar struct {
	leaf   *symexpr.Expr
	parent int32 // union-find (by size, no compression: pops undo unions)
	size   int32
	ring   int32 // next variable of the group's circular ring
	lpos   int32 // index in live while occs is non-empty
	val    uint64
	bad    uint32  // == stamp: the group rooted here has a false constraint
	occs   []int32 // slots mentioning the variable, in stack order
	firsts []int32 // first-occurrence slots whose first variable this is
}

func (sl *slicer) find(x int32) int32 {
	for sl.vars[x].parent != x {
		x = sl.vars[x].parent
	}
	return x
}

// slice loads (pc, base) and reports whether pc holds a literally false
// constraint. Otherwise it returns the distinct constraints of the groups
// base does not satisfy in canonical order (exactly canonicalize of them;
// empty when base satisfies every group) and, when pathOrder is set, all of
// those groups' constraints in path order. Both are scratch owned by the
// slicer, valid until the next call; keep reads the same query.
func (sl *slicer) slice(pc []*symexpr.Expr, base symexpr.Assignment, pathOrder bool) (falseConst bool, canon, unsatisfied []*symexpr.Expr) {
	if sl.num == nil {
		sl.num = map[*symexpr.Expr]int32{}
		sl.seen = map[*symexpr.Expr]bool{}
	}
	n := 0
	for n < len(sl.cs) && n < len(pc) && sl.cs[n] == pc[n] {
		n++
	}
	for len(sl.cs) > n {
		sl.pop()
	}
	sl.stamp++
	sl.rebase(base)
	for _, c := range pc[n:] {
		sl.push(c, base)
	}
	if sl.falseConsts > 0 {
		return true, nil, nil
	}

	// A group is its root's ring; a variable-free constraint is a group of
	// its own. Each distinct constraint has exactly one first-occurrence
	// slot, listed under that slot's first variable.
	canon = sl.canon[:0]
	for _, i := range sl.falses {
		s := &sl.slots[i]
		if s.n0 == s.n1 {
			if s.first {
				canon = append(canon, sl.cs[i])
			}
			continue
		}
		r := sl.find(sl.nums[s.n0])
		if sl.vars[r].bad == sl.stamp {
			continue
		}
		sl.vars[r].bad = sl.stamp
		for d := r; ; {
			for _, j := range sl.vars[d].firsts {
				canon = append(canon, sl.cs[j])
			}
			if d = sl.vars[d].ring; d == r {
				break
			}
		}
	}
	slices.SortFunc(canon, symexpr.Compare)
	sl.canon = canon
	if !pathOrder || len(canon) == 0 {
		return false, canon, nil
	}
	sl.out = sl.out[:0]
	for i := range sl.slots {
		s := &sl.slots[i]
		if s.n0 < s.n1 && sl.vars[sl.find(sl.nums[s.n0])].bad == sl.stamp || s.n0 == s.n1 && s.isFalse {
			sl.out = append(sl.out, sl.cs[i])
		}
	}
	return false, canon, sl.out
}

// keep adds to into (allocated when nil) the base value of every variable
// of the groups the last slice found satisfied, leaving the variables into
// already holds as they are, and returns it.
func (sl *slicer) keep(into symexpr.Assignment) symexpr.Assignment {
	if into == nil {
		into = make(symexpr.Assignment, len(sl.live))
	}
	for _, d := range sl.live {
		if sl.vars[sl.find(d)].bad == sl.stamp {
			continue
		}
		k := sl.vars[d].leaf.VarRef()
		if _, ok := into[k]; !ok {
			into[k] = sl.vars[d].val
		}
	}
	return into
}

// baseVal is v's value under base as slicing sees it: masked, zero when
// unassigned (exactly what EvalBool reads).
func baseVal(l *symexpr.Expr, base symexpr.Assignment) uint64 {
	return base[l.VarRef()] & l.Width().Mask()
}

// rebase moves the stack to a new base: only the slots of a variable whose
// masked value changed are re-evaluated.
func (sl *slicer) rebase(base symexpr.Assignment) {
	for _, d := range sl.live {
		v := &sl.vars[d]
		x := baseVal(v.leaf, base)
		if x == v.val {
			continue
		}
		v.val = x
		for _, i := range v.occs {
			if s := &sl.slots[i]; s.mark != sl.stamp {
				s.mark = sl.stamp
				sl.setFalse(i, !symexpr.EvalBool(sl.cs[i], base))
			}
		}
	}
}

// setFalse records slot i's truth, keeping falses in step.
func (sl *slicer) setFalse(i int32, f bool) {
	s := &sl.slots[i]
	if s.isFalse == f {
		return
	}
	s.isFalse = f
	if f {
		s.fpos = int32(len(sl.falses))
		sl.falses = append(sl.falses, i)
		return
	}
	last := sl.falses[len(sl.falses)-1]
	sl.falses[s.fpos] = last
	sl.slots[last].fpos = s.fpos
	sl.falses = sl.falses[:len(sl.falses)-1]
}

func (sl *slicer) push(c *symexpr.Expr, base symexpr.Assignment) {
	i := int32(len(sl.slots))
	sl.cs = append(sl.cs, c)
	sl.slots = append(sl.slots, slot{n0: int32(len(sl.nums)), n1: int32(len(sl.nums)), u0: int32(len(sl.undo))})
	if c.IsConst() {
		if c.ConstVal() == 0 {
			sl.falseConsts++
		}
		return
	}
	s := &sl.slots[i]
	for _, l := range c.VarLeaves() {
		d, ok := sl.num[l]
		if !ok {
			d = int32(len(sl.vars))
			sl.num[l] = d
			sl.vars = append(sl.vars, svar{leaf: l, parent: d, size: 1, ring: d})
		}
		v := &sl.vars[d]
		if len(v.occs) == 0 {
			v.val = baseVal(l, base)
			v.lpos = int32(len(sl.live))
			sl.live = append(sl.live, d)
		}
		v.occs = append(v.occs, i)
		sl.nums = append(sl.nums, d)
		if a, b := sl.find(sl.nums[s.n0]), sl.find(d); a != b {
			if sl.vars[a].size < sl.vars[b].size {
				a, b = b, a
			}
			sl.link(a, b)
			sl.vars[a].size += sl.vars[b].size
			sl.vars[b].parent = a
			sl.undo = append(sl.undo, b)
		}
	}
	s.n1 = int32(len(sl.nums))
	if s.first = !sl.seen[c]; s.first {
		sl.seen[c] = true
		if s.n0 < s.n1 {
			f := &sl.vars[sl.nums[s.n0]]
			f.firsts = append(f.firsts, i)
		}
	}
	sl.setFalse(i, !symexpr.EvalBool(c, base))
}

// link swaps the ring successors of a and b: on two rings it splices them
// into one, and on the ring a union made it splits them back. Pops are LIFO,
// so when a union is undone every later swap already has been, and the
// second swap restores the two rings exactly.
func (sl *slicer) link(a, b int32) {
	sl.vars[a].ring, sl.vars[b].ring = sl.vars[b].ring, sl.vars[a].ring
}

func (sl *slicer) pop() {
	i := int32(len(sl.slots) - 1)
	sl.setFalse(i, false)
	s, c := sl.slots[i], sl.cs[i]
	sl.slots, sl.cs = sl.slots[:i], sl.cs[:i]
	if c.IsConst() {
		if c.ConstVal() == 0 {
			sl.falseConsts--
		}
		return
	}
	for k := len(sl.undo) - 1; k >= int(s.u0); k-- {
		b := sl.undo[k]
		a := sl.vars[b].parent
		sl.vars[a].size -= sl.vars[b].size
		sl.vars[b].parent = b
		sl.link(a, b)
	}
	sl.undo = sl.undo[:s.u0]
	if s.first {
		delete(sl.seen, c)
		if s.n0 < s.n1 {
			f := &sl.vars[sl.nums[s.n0]]
			f.firsts = f.firsts[:len(f.firsts)-1]
		}
	}
	for _, d := range sl.nums[s.n0:s.n1] {
		v := &sl.vars[d]
		if v.occs = v.occs[:len(v.occs)-1]; len(v.occs) == 0 {
			last := sl.live[len(sl.live)-1]
			sl.live[v.lpos] = last
			sl.vars[last].lpos = v.lpos
			sl.live = sl.live[:len(sl.live)-1]
		}
	}
	sl.nums = sl.nums[:s.n0]
}
