package solver

import (
	"sort"

	"chef/internal/symexpr"
)

// Brute-force reference solver ("oracle") for the differential test suite.
//
// The production pipeline — constant filtering, slicing, canonicalization,
// three cache layers, bit-blasting, CDCL — has many places to be subtly
// wrong. The oracle has none: it enumerates every assignment of the query's
// variables and evaluates the constraints under the shared interpreter
// semantics (symexpr.EvalBool). Its verdict is trivially correct by
// construction, which makes it the ground truth the randomized differential
// tests and the fuzz target compare the real solver against.
//
// It lives in the package proper (not a _test file) so both the tests and
// the fuzz harness can use it, and so a developer can reach for it when
// minimizing a solver bug by hand.

// MaxOracleBits bounds the enumerated variable space: OracleCheck refuses
// queries whose variables exceed this many total bits (2^16 evaluations is
// the most a single differential trial should cost).
const MaxOracleBits = 16

// OracleCheck decides the conjunction pc by exhaustive enumeration. The
// returned model (Sat only) assigns every variable occurring in pc. feasible
// is false when the variable space exceeds MaxOracleBits, in which case the
// verdict is Unknown and callers should skip the comparison.
//
// Enumeration visits assignments in a fixed order (variables sorted by
// (Buf, Idx, W), values counting up), so the returned model is deterministic
// — but it is generally a *different* model than the SAT solver's; callers
// compare verdicts and validate models, never compare models to each other.
func OracleCheck(pc []*symexpr.Expr) (res Result, model symexpr.Assignment, feasible bool) {
	seen := map[*symexpr.Expr]bool{}
	var vars []symexpr.Var
	for _, c := range pc {
		for _, l := range c.VarLeaves() {
			if !seen[l] {
				seen[l] = true
				vars = append(vars, l.VarRef())
			}
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Less(vars[j]) })
	totalBits := 0
	for _, v := range vars {
		totalBits += int(v.W)
	}
	if totalBits > MaxOracleBits {
		return Unknown, nil, false
	}
	m := symexpr.Assignment{}
	for n := uint64(0); n < 1<<uint(totalBits); n++ {
		bits := n
		for _, v := range vars {
			m[v] = bits & v.W.Mask()
			bits >>= uint(v.W)
		}
		ok := true
		for _, c := range pc {
			if !symexpr.EvalBool(c, m) {
				ok = false
				break
			}
		}
		if ok {
			out := symexpr.Assignment{}
			for _, v := range vars {
				out[v] = m[v]
			}
			return Sat, out, true
		}
	}
	return Unsat, nil, true
}
