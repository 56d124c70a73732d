// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the Go reproduction: Table 2 (interpreter-preparation
// effort), Table 3 (testing results), Table 4 (feature support), Figure 8
// (test-case generation), Figure 9 (line coverage), Figure 10 (path-ratio
// over time), Figure 11 (optimization breakdown) and Figure 12 (overhead
// versus a dedicated engine).
//
// All experiments run under deterministic virtual-time budgets; repetitions
// vary the session seed, mirroring the paper's 15-trial averaging.
package experiments

import (
	"math"
	"runtime"
	"sort"

	"chef/internal/chef"
	"chef/internal/faults"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
)

// Budgets collects the virtual-time knobs of a run, standing in for the
// paper's 30-minute wall-clock budget and 60-second hang timeout.
type Budgets struct {
	// Time is the virtual-time exploration budget per session.
	Time int64
	// StepLimit is the per-run hang threshold.
	StepLimit int64
	// Reps is the number of repetitions with distinct seeds.
	Reps int
	// Seed is the base seed.
	Seed int64
	// Parallel bounds the number of worker goroutines the harness fans
	// session runs out over; 0 means runtime.GOMAXPROCS(0), 1 forces serial
	// execution. Results are deterministic and byte-identical for every
	// value (sessions are isolated; gathering preserves grid order).
	Parallel int
	// Shards, when >= 1, runs every session cell as a sharded exploration
	// (chef.ShardedSession) with up to Shards epoch workers. Results are
	// byte-identical for every value >= 1 — the worker count is scheduling,
	// not semantics — but the sharded semantics differ from the plain
	// single-session path, so 0 (the default) keeps existing goldens
	// stable.
	Shards int
	// Persist, when non-nil, is one view of a disk-backed store of solved
	// queries, taken once per process before the first session and shared
	// by every session. Its answerable set is fixed before the run starts,
	// so warm runs remain byte-identical to cold ones and results do not
	// depend on Parallel; see solver.PersistView.
	Persist *solver.PersistView
	// Metrics, when non-nil, aggregates observability metrics across every
	// session of the run: each writes into a child registry, merged into
	// this one in grid order. Observation-only: results are unaffected.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives the events of every session, labeled
	// "<package>/<config>/<seed>" in the grid, committed in grid order, so
	// the trace is the same for every Parallel value. The tracer must be
	// safe for concurrent use (obs.NewJSONL is).
	Tracer obs.Tracer
	// Faults, when non-nil, is the fault-injection plan threaded into every
	// session of the run (see internal/faults). Each session derives its
	// injector from the plan seed and its own label, so fault schedules are
	// identical for every Parallel value.
	Faults *faults.Plan
	// Spans enables the hierarchical span profiler, one per session (see
	// Budgets.session). Observation-only: results stay byte-identical for
	// every Parallel value.
	Spans bool
}

// Workers returns the effective worker count of the harness pool.
func (b Budgets) Workers() int {
	if b.Parallel > 0 {
		return b.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// session derives the options of one session of the run from b: strategy,
// seed and name, b's step limit, store and fault plan, isolated from the
// other sessions by chef.Isolate. Every experiment builds its sessions
// here; Merge hands a session's trace and metrics back to b's.
func (b Budgets) session(strategy chef.StrategyKind, seed int64, name string) chef.Isolated {
	return chef.Isolate(chef.Options{
		Strategy:      strategy,
		Seed:          seed,
		StepLimit:     b.StepLimit,
		SolverOptions: solver.Options{Persist: b.Persist},
		Metrics:       b.Metrics,
		Tracer:        b.Tracer,
		Faults:        b.Faults,
	}, name, b.Spans)
}

// Configuration is one of the four §6.3 configurations.
type Configuration struct {
	Name     string
	Strategy chef.StrategyKind
	Interp   interp.Config // the guest interpreter's §4.2 build
}

// FourConfigurations returns the §6.3 grid: baseline, CUPA only,
// optimizations only, and CUPA + optimizations. pathOpt selects the
// path-optimized CUPA (Fig. 8) versus the coverage-optimized one (Fig. 9).
func FourConfigurations(pathOpt bool) []Configuration {
	strat := chef.StrategyCUPACoverage
	if pathOpt {
		strat = chef.StrategyCUPAPath
	}
	return []Configuration{
		{Name: "Baseline", Strategy: chef.StrategyRandom},
		{Name: "CUPA Only", Strategy: strat},
		{Name: "Optimizations Only", Strategy: chef.StrategyRandom, Interp: interp.Optimized},
		{Name: "CUPA + Optimizations", Strategy: strat, Interp: interp.Optimized},
	}
}

// RunResult summarizes one session on one package.
type RunResult struct {
	HLTests    int
	LLPaths    int64
	Coverage   float64 // covered / coverable lines, in [0,1]
	Exceptions map[string]bool
	Hangs      int
	Series     []chef.SamplePoint
	VirtTime   int64
	Solver     solver.Stats
}

// runPackage explores one package under one configuration as a session
// with options opts and replays the generated tests to confirm outcomes
// and measure line coverage.
func runPackage(p *packages.Package, cfg Configuration, b Budgets, opts chef.Options) RunResult {
	res := RunResult{Exceptions: map[string]bool{}}
	test := p.Test(cfg.Interp)
	prog := test.Program()
	var tests []chef.TestCase
	if b.Shards >= 1 {
		ss := chef.NewShardedSession(prog, opts, b.Shards)
		tests = ss.Run(b.Time)
		res.LLPaths = ss.Stats().LLPaths
		res.Series = ss.Series()
		res.VirtTime = ss.Clock()
		res.Solver = ss.SolverStats()
	} else {
		session := chef.NewSession(prog, opts)
		tests = session.Run(b.Time)
		res.LLPaths = session.Engine().Stats().LLPaths
		res.Series = session.Series()
		res.VirtTime = session.Engine().Clock()
		res.Solver = session.Engine().Solver().Stats()
	}
	covered := map[int]bool{}
	for _, tc := range tests {
		rep := test.Replay(tc.Input, b.StepLimit)
		for l := range rep.Lines {
			covered[l] = true
		}
		classify(&res, rep.Result, rep.Status)
	}
	res.HLTests = len(tests)
	res.Coverage = float64(len(covered)) / float64(len(test.CoverableLines()))
	return res
}

func classify(res *RunResult, result string, status lowlevel.RunStatus) {
	if status == lowlevel.RunHang {
		res.Hangs++
		return
	}
	const pyPrefix = "exception:"
	if len(result) > len(pyPrefix) && result[:len(pyPrefix)] == pyPrefix {
		res.Exceptions[result[len(pyPrefix):]] = true
	}
}

// Mean and Stddev of float series.
func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(v / float64(len(xs)))
}

// Aggregated holds a mean ± stddev across repetitions.
type Aggregated struct {
	Mean float64
	Std  float64
}

// repCells expands one (package, configuration) grid point into its b.Reps
// session cells, with the same seed schedule the serial harness used.
func repCells(p *packages.Package, cfg Configuration, b Budgets) []cell {
	cells := make([]cell, 0, b.Reps)
	for r := 0; r < b.Reps; r++ {
		cells = append(cells, cell{p: p, cfg: cfg, seed: b.Seed + int64(r)*7919})
	}
	return cells
}

// runGrid runs every (package, configuration) point of a grid b.Reps
// times on the worker pool and returns each point's aggregated test counts
// and coverage, indexed [package][configuration].
func runGrid(pkgs []*packages.Package, configs []Configuration, b Budgets) (tests, coverage [][]Aggregated) {
	var cells []cell
	for _, p := range pkgs {
		for _, cfg := range configs {
			cells = append(cells, repCells(p, cfg, b)...)
		}
	}
	results := runCells(b, cells)
	for range pkgs {
		ts, cs := make([]Aggregated, len(configs)), make([]Aggregated, len(configs))
		for ci := range configs {
			ts[ci], cs[ci] = aggregate(results[:b.Reps])
			results = results[b.Reps:]
		}
		tests, coverage = append(tests, ts), append(coverage, cs)
	}
	return tests, coverage
}

// aggregate folds per-repetition results into the (mean, std) pairs the
// tables and figures report.
func aggregate(results []RunResult) (tests, coverage Aggregated) {
	var ts, cs []float64
	for _, res := range results {
		ts = append(ts, float64(res.HLTests))
		cs = append(cs, res.Coverage)
	}
	tm, tstd := meanStd(ts)
	cm, cstd := meanStd(cs)
	return Aggregated{tm, tstd}, Aggregated{cm, cstd}
}

// sortedKeys returns sorted map keys for deterministic rendering.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
