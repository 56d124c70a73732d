package solver

import (
	sx "chef/internal/symexpr"
)

// A JSON-DFS-shaped query stream: depth-first exploration of a lexer-like
// loop that re-scans a six-byte input buffer round after round, classifying
// each byte ('{', '"', escape, two-digit number, blank). Like the engine's
// DFS over the JSON parser, paths run to hundreds of branch constraints over
// a handful of input bytes, the same comparisons recur every round (so the
// touched group is long but has few distinct constraints), number scanning
// joins neighbouring bytes into multi-variable groups, and most flips of a
// recurring comparison contradict an earlier round and come back unsat.

const deepPathBytes = 6

// deepPathRun executes the lexer on env and returns its branch constraints
// in path order, each oriented the way env takes it.
func deepPathRun(env sx.Assignment, rounds int) []*sx.Expr {
	c := func(v uint64) *sx.Expr { return sx.Const(v, sx.W8) }
	in := make([]*sx.Expr, deepPathBytes)
	for i := range in {
		in[i] = sx.NewVar(sx.Var{Buf: "in", Idx: i, W: sx.W8})
	}
	length := sx.NewVar(sx.Var{Buf: "len", W: sx.W16})
	var path []*sx.Expr
	decide := func(e *sx.Expr) bool {
		taken := sx.EvalBool(e, env)
		if !taken {
			e = sx.Not(e)
		}
		path = append(path, e)
		return taken
	}
	for r := 0; r < rounds; r++ {
		k := uint64(r % 3) // the token set shifts from round to round
		for i, b := range in {
			next := in[(i+1)%len(in)]
			switch {
			case decide(sx.Eq(b, c('{'+k))):
			case decide(sx.Eq(b, c('"'))):
				decide(sx.Eq(next, c('\\'-k)))
			case decide(sx.Ule(c('0'+k), b)) && decide(sx.Ule(b, c('9'))):
				decide(sx.Ult(sx.Add(sx.Mul(sx.Sub(b, c('0')), c(10)), sx.Sub(next, c('0'))), c(100-k)))
			default:
				decide(sx.Eq(b, c(' '+k)))
			}
			// A fresh check per byte: a length bound that tightens as the
			// scan goes on, so a flip deep in the path can still be feasible.
			decide(sx.Ult(length, sx.Const(uint64(4000-60*r-7*i), sx.W16)))
		}
	}
	return path
}

// deepPathDFS explores the lexer depth-first the way the engine does: every
// run forks one state per branch below its own flip point, the newest state
// runs next, and a state is checked with its path condition (the parent's
// prefix plus the flipped branch) under the parent run's assignment as the
// slicing base. visit sees every query with its answer (q.PC is reused
// afterwards: copy it to keep it); exploration stops after maxQueries
// queries.
func deepPathDFS(s *Solver, rounds, maxQueries int, visit func(q Query, res Result, model sx.Assignment)) {
	type state struct {
		path []*sx.Expr // the forking run's path, shared by its states
		d    int        // flipped position
		base sx.Assignment
	}
	// Paths are identified by a rolling hash of their constraints' structural
	// hashes, like the engine's decision signatures.
	sig := func(h uint64, e *sx.Expr) uint64 { return (h^e.Hash())*0x9e3779b97f4a7c15 + 1 }
	seen := map[uint64]bool{}
	var stack []state
	fork := func(env sx.Assignment, from int) {
		path := deepPathRun(env, rounds)
		var h uint64
		for d, e := range path {
			if alt := sig(h, sx.Not(e)); d >= from && !seen[alt] {
				seen[alt] = true
				stack = append(stack, state{path, d, env})
			}
			h = sig(h, e)
		}
	}
	fork(sx.Assignment{}, 0)
	var pc []*sx.Expr
	for n := 0; n < maxQueries && len(stack) > 0; n++ {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pc = append(append(pc[:0], st.path[:st.d]...), sx.Not(st.path[st.d]))
		q := Query{PC: pc, Base: st.base}
		res, model := s.CheckQuery(q)
		visit(q, res, model)
		if res == Sat {
			env := st.base.Clone()
			for v, x := range model {
				env[v] = x
			}
			fork(env, len(pc))
		}
	}
}
