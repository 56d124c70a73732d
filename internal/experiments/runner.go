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
	"fmt"
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
	// Persist, when non-nil, is a disk-backed store of solved queries shared
	// by every session. Its read side is fixed before the run starts, so warm
	// runs remain byte-identical to cold ones; see solver.PersistentStore.
	Persist *solver.PersistentStore
	// Metrics, when non-nil, aggregates observability metrics across every
	// session of the run: each session writes into a private child registry
	// that is merged into this one when the session finishes (counters and
	// histograms are commutative sums, so aggregation is schedule-
	// independent). Observation-only: tables and figures are unaffected.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives structured exploration events from every
	// session, labeled "<package>/<config>/<seed>". The tracer must be safe
	// for concurrent use (obs.NewJSONL is).
	Tracer obs.Tracer
	// Faults, when non-nil, is the fault-injection plan threaded into every
	// session of the run (see internal/faults). Each session derives its
	// injector from the plan seed and its own label, and worker.stall rules
	// match the session's grid-cell index, so fault schedules are identical
	// for every Parallel value.
	Faults *faults.Plan
	// Spans enables the hierarchical span profiler. Profilers are
	// single-goroutine, so the harness builds one per session cell, writing
	// into the cell's private child registry (merged into Metrics at cell
	// end) and tagging span events with the session label. Observation-only:
	// results stay byte-identical for every Parallel value.
	Spans bool
}

// solverOptions builds the per-session solver options. The Persist field is
// assigned conditionally: solver.Options.Persist is an interface, and storing
// a nil *solver.PersistentStore in it directly would produce a non-nil
// interface value (the typed-nil trap).
func solverOptions(b Budgets) solver.Options {
	var so solver.Options
	if b.Persist != nil {
		so.Persist = b.Persist
	}
	return so
}

// Workers returns the effective worker count of the harness pool.
func (b Budgets) Workers() int {
	if b.Parallel > 0 {
		return b.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultBudgets returns budgets sized for the benchmark harness: large
// enough to show every effect, small enough for a laptop.
func DefaultBudgets() Budgets {
	return Budgets{Time: 3_000_000, StepLimit: 60_000, Reps: 3, Seed: 1}
}

// QuickBudgets returns reduced budgets for unit tests.
func QuickBudgets() Budgets {
	return Budgets{Time: 600_000, StepLimit: 30_000, Reps: 1, Seed: 1}
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
	Package    string
	Config     string
	HLTests    int
	LLPaths    int64
	Coverage   float64 // covered / coverable lines, in [0,1]
	Exceptions map[string]bool
	Hangs      int
	Series     []chef.SamplePoint
	VirtTime   int64
	Solver     solver.Stats
}

// RunPackage explores one package under one configuration and replays the
// generated tests to confirm outcomes and measure line coverage.
func RunPackage(p *packages.Package, cfg Configuration, b Budgets, seed int64) RunResult {
	return runPackageCell(p, cfg, b, seed, 0)
}

// runPackageCell is RunPackage with the session's grid-cell index, which
// worker.stall fault rules match on (the index is a grid position, so fault
// schedules are schedule-independent).
func runPackageCell(p *packages.Package, cfg Configuration, b Budgets, seed int64, idx int) RunResult {
	opts := chef.Options{
		Strategy:      cfg.Strategy,
		Seed:          seed,
		StepLimit:     b.StepLimit,
		SolverOptions: solverOptions(b),
		Tracer:        b.Tracer,
		Name:          fmt.Sprintf("%s/%s/%d", p.Name, cfg.Name, seed),
		Faults:        b.Faults,
		SessionIndex:  idx,
	}
	var child *obs.Registry
	if b.Metrics != nil {
		child = obs.NewRegistry()
		opts.Metrics = child
	}
	if b.Spans {
		opts.Spans = obs.NewSpanProfiler(child, obs.WithSession(b.Tracer, opts.Name))
	}
	res := RunResult{Package: p.Name, Config: cfg.Name, Exceptions: map[string]bool{}}
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
	if child != nil {
		b.Metrics.Merge(child)
	}
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

// aggregate folds per-repetition results into the (mean, std) pairs the
// tables and figures report. last is the highest-seed repetition, matching
// the serial harness.
func aggregate(results []RunResult) (tests, coverage Aggregated, last RunResult) {
	var ts, cs []float64
	for _, res := range results {
		ts = append(ts, float64(res.HLTests))
		cs = append(cs, res.Coverage)
		last = res
	}
	tm, tstd := meanStd(ts)
	cm, cstd := meanStd(cs)
	return Aggregated{tm, tstd}, Aggregated{cm, cstd}, last
}

// RunRepeated runs RunPackage b.Reps times with varying seeds, fanning the
// repetitions out over the worker pool, and aggregates test counts and
// coverage. Results are gathered in repetition order, so the output is
// byte-identical to a serial run for any Parallel value.
func RunRepeated(p *packages.Package, cfg Configuration, b Budgets) (tests, coverage Aggregated, last RunResult) {
	return aggregate(runCells(b, repCells(p, cfg, b)))
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
