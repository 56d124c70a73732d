// Package interp holds the §4.2 build configuration that both guest
// interpreters, MiniPy and MiniLua, take: one Config type for both, since
// the same three optimization groups apply to each (the paper's Lua case
// study eliminated string interning and used integer numbers).
package interp

// Config selects which of the §4.2 interpreter optimizations are compiled
// in, mirroring the paper's -with-symbex configure flag. The zero value is
// the vanilla interpreter.
type Config struct {
	// HashNeutralization replaces the string and integer hash functions
	// with a degenerate constant hash, turning hash-table lookups into list
	// traversals instead of solver-hostile hash inversions and per-bucket
	// forks.
	HashNeutralization bool
	// AvoidSymbolicPointers concretizes allocation sizes through
	// upper_bound instead of forking per feasible size, and disables the
	// interning of small integers and single-character strings whose cache
	// lookups otherwise turn values into symbolic pointers.
	AvoidSymbolicPointers bool
	// FastPathElimination removes short-circuited special cases (such as
	// early-exit string comparison) so whole buffers are processed on a
	// single execution path.
	FastPathElimination bool
}

// Vanilla is the unmodified interpreter build.
var Vanilla = Config{}

// Optimized is the fully optimized build (the paper's "+ Fast Path
// Elimination" configuration).
var Optimized = Config{
	HashNeutralization:    true,
	AvoidSymbolicPointers: true,
	FastPathElimination:   true,
}

// OptLevels returns the four cumulative builds of Fig. 11: no optimizations,
// + symbolic pointer avoidance, + hash neutralization, + fast path
// elimination.
func OptLevels() []Config {
	return []Config{
		{},
		{AvoidSymbolicPointers: true},
		{AvoidSymbolicPointers: true, HashNeutralization: true},
		{AvoidSymbolicPointers: true, HashNeutralization: true, FastPathElimination: true},
	}
}

// OptLevelNames returns display names aligned with OptLevels.
func OptLevelNames() []string {
	return []string{
		"No Optimizations",
		"+ Symbolic Pointer Avoidance",
		"+ Hash Neutralization",
		"+ Fast Path Elimination",
	}
}
