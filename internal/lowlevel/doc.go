// Package lowlevel implements the concolic low-level engine that stands in
// for S2E in this reproduction: the Machine (per-run concolic state), the
// Engine (exploration loop, state queue, virtual clock) and the Strategy
// interface the CUPA heuristics plug into.
//
// # Concurrency model
//
// An Engine and everything it owns — its Machine instances, Strategy,
// seeded *rand.Rand and *solver.Solver — are confined to a single goroutine.
// None of these types are safe for concurrent use, and they do not need to
// be: parallelism in this system happens one session per worker at the
// harness layer (internal/experiments, chef.RunPortfolio), where each
// session builds its own Engine from its own seed. The package keeps no
// mutable package-level state (the only package vars are immutable sentinel
// errors), so any number of engines may run on different goroutines without
// synchronization. Each engine's solver owns a private counterexample
// cache; the only solver state engines share is the optional persistent
// store, whose reads are fixed before a run starts.
//
// Determinism: given a fixed seed, step limit and program, an engine's
// exploration — fork order, state selection, virtual clock, generated
// inputs — is a pure function of its inputs. This is what makes the
// experiment grid embarrassingly parallel with byte-identical output.
package lowlevel
