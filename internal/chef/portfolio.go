package chef

import (
	"context"
	"runtime"

	"chef/internal/obs"
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
// owns its RNG, machine and solver), so they fan out over up to
// opts.Parallel workers (0 means runtime.GOMAXPROCS(0)); the merge walks the
// gathered results in member order, so the outcome is identical to a serial
// run regardless of scheduling.
func RunPortfolio(members []PortfolioMember, opts Options, budget int64) PortfolioResult {
	return RunPortfolioContext(context.Background(), members, opts, budget)
}

// RunPortfolioContext is RunPortfolio with cooperative cancellation: member
// sessions run under the context and stop promptly when it is done, and the
// merge proceeds over whatever each member produced before the cancellation
// point. With an uncancelled context it is byte-identical to RunPortfolio.
func RunPortfolioContext(ctx context.Context, members []PortfolioMember, opts Options, budget int64) PortfolioResult {
	if ctx == nil {
		ctx = context.Background()
	}
	res := PortfolioResult{}
	if len(members) == 0 {
		return res
	}
	share := budget / int64(len(members))
	perMember := make([][]TestCase, len(members))
	summaries := make([]Summary, len(members))
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Observability: each member session writes into its own child registry;
	// children merge into the caller's registry in member order after the
	// pool drains, so aggregated metrics are schedule-independent.
	var childRegs []*obs.Registry
	if opts.Metrics != nil {
		childRegs = make([]*obs.Registry, len(members))
		for i := range childRegs {
			childRegs[i] = obs.NewRegistry()
		}
	}
	runMember := func(i int) {
		memberOpts := opts
		memberOpts.Seed = opts.Seed + int64(i)*104729
		if memberOpts.Name == "" {
			memberOpts.Name = members[i].Name
		}
		if childRegs != nil {
			memberOpts.Metrics = childRegs[i]
		}
		if opts.Spans != nil {
			// A SpanProfiler is single-goroutine: the caller's instance marks
			// intent, each member gets its own over its child registry. Span
			// aggregates are plain counters, so they merge like everything else.
			memberOpts.Spans = obs.NewSpanProfiler(memberOpts.Metrics, obs.WithSession(opts.Tracer, memberOpts.Name))
		}
		s := NewSession(members[i].Prog, memberOpts)
		perMember[i] = s.RunContext(ctx, share)
		summaries[i] = s.Summary()
	}
	ParFor(workers, len(members), runMember)
	if childRegs != nil {
		for _, child := range childRegs {
			opts.Metrics.Merge(child)
		}
	}
	for _, sum := range summaries {
		res.Aggregate.Add(sum)
	}
	// Deterministic merge in member order: first build to find a path wins.
	seen := map[uint64]bool{}
	for _, tests := range perMember {
		res.PerBuild = append(res.PerBuild, len(tests))
		fresh := 0
		for _, tc := range tests {
			if !seen[tc.HLSig] {
				seen[tc.HLSig] = true
				res.Tests = append(res.Tests, tc)
				fresh++
			}
		}
		res.NewPerBuild = append(res.NewPerBuild, fresh)
	}
	return res
}
