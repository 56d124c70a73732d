package chef

import (
	"runtime"

	"chef/internal/lowlevel"
)

// Portfolio exploration implements the extension §6.5 of the paper suggests:
// "for large packages, a portfolio of interpreter builds with different
// optimizations enabled would help further increase the path coverage."
// Fig. 11 motivates it with xlrd, whose best-performing build is not the
// fully optimized one: different optimization levels steer the search into
// different behaviors of the target.
//
// RunPortfolio splits the virtual-time budget across one session per
// interpreter build and merges the distinct high-level paths. High-level
// path signatures are comparable across sessions because they derive from
// the target program's HLPCs, which are deterministic for a fixed source.

// PortfolioMember is one build participating in a portfolio.
type PortfolioMember struct {
	Name string
	Prog TestProgram
}

// PortfolioResult aggregates a portfolio run.
type PortfolioResult struct {
	// Tests are the merged test cases, one per distinct high-level path
	// across all builds (first build to find a path wins).
	Tests []TestCase
	// PerBuild reports each member's own distinct-path count.
	PerBuild []int
	// NewPerBuild reports how many paths each member contributed that no
	// earlier member had found.
	NewPerBuild []int
	// Aggregate is the sum of the member sessions' summaries (Summary.Add):
	// total runs, forks, LL paths and virtual time spent across the
	// portfolio. Path counts here are per-member sums; Tests holds the
	// cross-member deduplicated view.
	Aggregate Summary
}

// RunPortfolio explores every member under an equal share of the budget and
// merges distinct high-level paths. Member sessions are independent (each
// owns its RNG, machine and solver), so they fan out over up to workers
// goroutines (0 means runtime.GOMAXPROCS(0)). Each member traces into its
// own segment; after the pool drains, the merge walks the members in order,
// committing their segments as it goes, so the result and the trace are
// those of a serial run whatever the schedule.
func RunPortfolio(members []PortfolioMember, opts Options, workers int, budget int64) PortfolioResult {
	res := PortfolioResult{}
	if len(members) == 0 {
		return res
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	share := budget / int64(len(members))
	set := newSessionSet(len(members), opts, func(k int) (string, TestProgram, lowlevel.Router) {
		if opts.Name != "" {
			return opts.Name + "/" + members[k].Name, members[k].Prog, nil
		}
		return members[k].Name, members[k].Prog, nil
	})
	ParFor(workers, len(members), func(k int) { set.sess[k].Run(share) })
	res.NewPerBuild = make([]int, len(members))
	set.merge(res.NewPerBuild)
	res.Tests = set.tests
	for _, s := range set.sess {
		res.PerBuild = append(res.PerBuild, len(s.tests))
	}
	res.Aggregate = set.Summary()
	return res
}
