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
// Each session's trace and metrics are committed in cell order, so the
// trace is cell-major and the same at every worker count too.
package experiments

import (
	"fmt"
	"sync"

	"chef/internal/chef"
	"chef/internal/packages"
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
	fanOut(b, len(cells), func(i int) []chef.Isolated {
		c := cells[i]
		s := b.session(c.cfg.Strategy, c.seed, fmt.Sprintf("%s/%s/%d", c.p.Name, c.cfg.Name, c.seed))
		out[i] = runPackage(c.p, c.cfg, b, s.Opts)
		return []chef.Isolated{s}
	})
	return out
}

// fanOut runs run(0..n-1) on the worker pool. run(i) returns the sessions
// it ran, and those of index i are committed once every earlier index has
// committed: the trace is in index order, while only the indices that
// finished ahead of a slower one wait in memory.
func fanOut(b Budgets, n int, run func(i int) []chef.Isolated) {
	var mu sync.Mutex
	done := make([][]chef.Isolated, n)
	finished := make([]bool, n)
	next := 0
	chef.ParFor(b.Workers(), n, func(i int) {
		sessions := run(i)
		mu.Lock()
		defer mu.Unlock()
		done[i], finished[i] = sessions, true
		for ; next < n && finished[next]; next++ {
			for _, s := range done[next] {
				s.Merge()
			}
			done[next] = nil
		}
	})
}
