// Worker-pool execution layer for the experiment harness.
//
// The paper's evaluation ran its 11-package x 4-configuration grid on a
// 48-core machine; this file supplies the corresponding fan-out for the Go
// reproduction. Every CHEF session is deterministic given its seed and
// virtual clock and shares no mutable state with its siblings (each session
// owns its RNG, machine, strategy and solver), so the grid is embarrassingly
// parallel: cells execute on up to Budgets.Workers() goroutines and results
// land in slices indexed by cell position, making every table and figure
// byte-for-byte identical to the serial output regardless of scheduling.
package experiments

import (
	"sync"

	"chef/internal/chef"
	"chef/internal/packages"
	"chef/internal/solver"
)

// cell is one unit of grid work: one session of one package under one
// configuration and seed.
type cell struct {
	p    *packages.Package
	cfg  Configuration
	seed int64
}

// runCells executes every cell on the shared worker pool (chef.ParFor) and
// gathers results in cell order.
func runCells(b Budgets, cells []cell) []RunResult {
	out := make([]RunResult, len(cells))
	chef.ParFor(b.Workers(), len(cells), func(i int) {
		out[i] = runPackageCell(cells[i].p, cells[i].cfg, b, cells[i].seed, i)
	})
	return out
}

// HarnessStats aggregates solver-side work across every session the harness
// has run since the last reset: how many sessions executed, plus the full
// solver counter set summed over all sessions. The headline fields mirror
// the totals callers printed historically; Solver carries everything else
// (propagations, conflicts, per-result query counts).
type HarnessStats struct {
	Sessions      int64
	SolverQueries int64
	CacheHits     int64
	CacheMisses   int64
	Solver        solver.Stats
}

var harness struct {
	mu       sync.Mutex
	sessions int64
	solver   solver.Stats
}

// recordSession folds one finished session's solver snapshot into the
// harness totals via solver.Stats.Add (the canonical merge helper — not
// ad-hoc field sums). Called from worker goroutines under a short mutex.
func recordSession(st solver.Stats) {
	harness.mu.Lock()
	harness.sessions++
	harness.solver.Add(st)
	harness.mu.Unlock()
}

// HarnessSnapshot returns the accumulated harness counters.
func HarnessSnapshot() HarnessStats {
	harness.mu.Lock()
	defer harness.mu.Unlock()
	return HarnessStats{
		Sessions:      harness.sessions,
		SolverQueries: harness.solver.Queries,
		CacheHits:     harness.solver.CacheHits,
		CacheMisses:   harness.solver.CacheMisses,
		Solver:        harness.solver,
	}
}

// ResetHarnessStats zeroes the harness counters (tests and the CLI call it
// between experiments).
func ResetHarnessStats() {
	harness.mu.Lock()
	harness.sessions = 0
	harness.solver = solver.Stats{}
	harness.mu.Unlock()
}
