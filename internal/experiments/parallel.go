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
	chef.ParFor(b.Workers(), len(cells), func(i int) {
		out[i] = runPackageCell(cells[i].p, cells[i].cfg, b, cells[i].seed, i)
	})
	return out
}
