package interp

import (
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// The native byte-string routines that the §4.2 switches change, written
// once for both guests. A string is its bytes as width-8 values; each guest
// wraps these routines with its own value types, index conventions, errors
// and LLPCs, which the caller passes in. These are the interpreter internals
// whose byte-wise loops make one high-level instruction (like
// email.find("@")) explode into many low-level paths, the paper's Fig. 2/3
// phenomenon: the vanilla variants keep the early exits of CPython and Lua,
// which fork per byte, and fast-path elimination processes whole buffers on
// one path.

func c8(b byte) lowlevel.SVal { return lowlevel.ConcreteVal(uint64(b), symexpr.W8) }

// StrEq returns the equality of two strings as a width-1 value.
//
// Vanilla: the comparison short-circuits on the first differing byte, so
// each byte is a branch at eqLLPC and inequality exits early: n low-level
// paths. Fast-path elimination compares the whole buffers on one path,
// accumulating a symbolic flag; the single branch happens at the caller.
func StrEq(m *lowlevel.Machine, cfg Config, a, b []lowlevel.SVal, eqLLPC lowlevel.LLPC) lowlevel.SVal {
	if len(a) != len(b) {
		return lowlevel.ConcreteBool(false) // the length check is structural
	}
	return StrMatchAt(m, cfg, a, b, 0, eqLLPC)
}

// StrCompare orders two strings lexicographically and returns -1, 0 or 1.
// It always walks the bytes with branches at ltLLPC: neither interpreter
// has a branch-free variant.
func StrCompare(m *lowlevel.Machine, a, b []lowlevel.SVal, ltLLPC lowlevel.LLPC) int {
	for i := range min(len(a), len(b)) {
		m.Step(1)
		if m.Branch(ltLLPC, lowlevel.UltV(a[i], b[i])) {
			return -1
		}
		if m.Branch(ltLLPC, lowlevel.UltV(b[i], a[i])) {
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// StrMatchAt reports whether needle occurs in hay at position pos, as a
// width-1 value: one symbolic flag with fast-path elimination, early-exit
// branches at eqLLPC without it.
func StrMatchAt(m *lowlevel.Machine, cfg Config, hay, needle []lowlevel.SVal, pos int, eqLLPC lowlevel.LLPC) lowlevel.SVal {
	if cfg.FastPathElimination {
		acc := lowlevel.ConcreteBool(true)
		for j := range needle {
			m.Step(1)
			acc = lowlevel.BoolAndV(acc, lowlevel.EqV(hay[pos+j], needle[j]))
		}
		return acc
	}
	for j := range needle {
		m.Step(1)
		if m.Branch(eqLLPC, lowlevel.NeV(hay[pos+j], needle[j])) {
			return lowlevel.ConcreteBool(false)
		}
	}
	return lowlevel.ConcreteBool(true)
}

// StrFind returns the first 0-based position at or after start where needle
// occurs in hay, or -1: plain find, the paper's canonical low-level
// path-explosion source, with one branch per candidate position at posLLPC.
func StrFind(m *lowlevel.Machine, cfg Config, hay, needle []lowlevel.SVal, start int, eqLLPC, posLLPC lowlevel.LLPC) int {
	for pos := max(start, 0); pos+len(needle) <= len(hay); pos++ {
		m.Step(1)
		if m.Branch(posLLPC, StrMatchAt(m, cfg, hay, needle, pos, eqLLPC)) {
			return pos
		}
	}
	return -1
}

// InternByte returns the byte of a one-character string. Both vanilla
// interpreters intern single-character strings, so the result object is a
// table lookup at a symbolic index: a symbolic pointer, resolved by forking
// per feasible byte value at llpc. Symbolic-pointer avoidance allocates a
// fresh string, which keeps the byte symbolic.
func InternByte(m *lowlevel.Machine, cfg Config, b lowlevel.SVal, llpc lowlevel.LLPC) lowlevel.SVal {
	if !cfg.AvoidSymbolicPointers && b.IsSymbolic() {
		return c8(byte(m.ConcretizeFork(llpc, b)))
	}
	return b
}

// AllocCount turns a possibly symbolic element count into the concrete
// count of an allocation (Fig. 6). The vanilla interpreter forks per
// feasible count at llpc; symbolic-pointer avoidance asks the solver for an
// upper bound, which could size the allocation, and pins the content length
// without a fork. The caller clamps and caps the result.
func AllocCount(m *lowlevel.Machine, cfg Config, n lowlevel.SVal, llpc lowlevel.LLPC) int64 {
	switch {
	case !n.IsSymbolic():
		return n.Int()
	case cfg.AvoidSymbolicPointers:
		m.UpperBound(n)
		return int64(m.ConcretizeSilent(n))
	}
	return int64(m.ConcretizeFork(llpc, n))
}

// StrCaseMap converts ASCII case. The vanilla build consults the
// character-class table per byte, a branch at llpc; fast-path elimination
// computes each result byte symbolically on a single path.
func StrCaseMap(m *lowlevel.Machine, cfg Config, s []lowlevel.SVal, toLower bool, llpc lowlevel.LLPC) []lowlevel.SVal {
	out := make([]lowlevel.SVal, len(s))
	lo, hi := byte('a'), byte('z')
	if toLower {
		lo, hi = 'A', 'Z'
	}
	for i, b := range s {
		m.Step(1)
		inRange := lowlevel.BoolAndV(lowlevel.UleV(c8(lo), b), lowlevel.UleV(b, c8(hi)))
		var d lowlevel.SVal
		if cfg.FastPathElimination {
			// b ± (inRange ? 32 : 0), computed branch-free.
			d = lowlevel.MulV(lowlevel.ZExtV(inRange, symexpr.W8), c8(32))
		} else if m.Branch(llpc, inRange) {
			d = c8(32)
		} else {
			out[i] = b
			continue
		}
		if toLower {
			out[i] = lowlevel.AddV(b, d)
		} else {
			out[i] = lowlevel.SubV(b, d)
		}
	}
	return out
}

// StrHash is the string hash h = h*mul ^ byte, seeded with the length, as a
// width-64 value: mul is 1000003 for CPython 2.x and 31 for Lua. Over a
// symbolic string it is the solver-hostile value that hash neutralization
// removes; the caller applies that switch.
func StrHash(m *lowlevel.Machine, s []lowlevel.SVal, mul uint64) lowlevel.SVal {
	h := lowlevel.ConcreteVal(uint64(len(s)), symexpr.W64)
	for _, b := range s {
		m.Step(1)
		h = lowlevel.XorV(lowlevel.MulV(h, lowlevel.ConcreteVal(mul, symexpr.W64)), lowlevel.ZExtV(b, symexpr.W64))
	}
	return h
}

// BucketIndex selects one of n buckets (a power of two) for hash h. A
// symbolic hash makes the bucket a symbolic table index: the engine forks
// one state per feasible bucket at llpc, strategy (a) of the paper's
// symbolic-pointer discussion.
func BucketIndex(m *lowlevel.Machine, h lowlevel.SVal, n int, llpc lowlevel.LLPC) int {
	b := lowlevel.AndV(h, lowlevel.ConcreteVal(uint64(n-1), symexpr.W64))
	if b.IsSymbolic() {
		return int(m.ConcretizeFork(llpc, b)) & (n - 1)
	}
	return int(b.C) & (n - 1)
}
