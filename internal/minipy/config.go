package minipy

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Vanilla and Optimized are interp.Vanilla and interp.Optimized under the
// names the benchmark harness (perfbench) still uses.
var (
	Vanilla   = interp.Vanilla
	Optimized = interp.Optimized
)

// Low-level program counters of the MiniPy interpreter: unique identifiers
// for every branch or concretization site in the interpreter implementation,
// playing the role of x86 instruction addresses under S2E. Sites are grouped
// by the interpreter component they belong to.
const (
	llpcBase lowlevel.LLPC = 0x1000 + iota

	// VM dispatch.
	llpcJumpCond  // conditional jump on a truth value
	llpcBoolTruth // truthiness of a value
	llpcForIter   // loop-continuation branch
	llpcExcMatch  // exception type match (concrete)
	llpcCompareDispatch

	// Integer runtime.
	llpcIntOverflow // smallint overflow check promoting to bignum
	llpcIntSign     // sign branch in division/modulo adjustment
	llpcIntDivZero  // division-by-zero check
	llpcIntIntern   // small-integer interning cache lookup
	llpcIntEq
	llpcIntLt
	llpcIntNonZero

	// Bignum runtime.
	llpcBigCarry     // carry propagation branch
	llpcBigNormalize // top-digit-zero normalization branch
	llpcBigCmpDigit  // per-digit comparison branch
	llpcBigToStrLoop // quotient-nonzero branch in decimal conversion

	// String runtime.
	llpcStrEqFast     // fast-path early-exit byte comparison
	llpcStrEqFinal    // single comparison of accumulated equality flag
	llpcStrLtByte     // lexicographic comparison byte branch
	llpcStrFindPos    // per-position match branch in find
	llpcStrCharIntern // single-character string interning table lookup
	llpcStrHashBucket // hash-table bucket selection on string hash
	llpcStrIsSpace
	llpcStrIsDigit
	llpcStrIsAlpha
	llpcStrStrip
	llpcStrSplit
	llpcStrReplace
	llpcStrCount
	llpcStrAllocSize // symbolic allocation size (string repeat, int-to-str)

	// Dict runtime.
	llpcDictBucket // bucket selection fork
	llpcDictKeyCmp // key comparison while scanning a bucket
	llpcDictLookup

	// List runtime.
	llpcListIndexCheck
	llpcListEq

	// Builtins and misc.
	llpcBuiltinOrd
	llpcBuiltinChr
	llpcBuiltinInt // int(str) digit-validity branches
	llpcRangeCond
	llpcAssume
)
