package experiments

import (
	"runtime"
	"testing"
	"time"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
)

// quickParallelBudgets trims the grid enough for a unit test while keeping
// several repetitions so aggregation order matters.
func quickParallelBudgets(workers int) Budgets {
	b := quickBudgets()
	b.Time = 300_000
	b.Reps = 2
	b.Parallel = workers
	return b
}

// runRepeated runs a grid point b.Reps times with varying seeds, fanning the
// repetitions out over the worker pool, and aggregates test counts and
// coverage. Results are gathered in repetition order, so the output is
// byte-identical to a serial run for any Parallel value.
func runRepeated(p *packages.Package, cfg Configuration, b Budgets) (tests, coverage Aggregated, last RunResult) {
	results := runCells(b, repCells(p, cfg, b))
	tests, coverage = aggregate(results)
	return tests, coverage, results[len(results)-1]
}

// TestRunRepeatedParallelDeterminism proves the tentpole property at the
// runRepeated level: identical budgets and seeds give identical aggregates
// whether the repetitions run on one worker or eight.
func TestRunRepeatedParallelDeterminism(t *testing.T) {
	p, _ := packages.ByName("simplejson")
	cfg := FourConfigurations(true)[3]

	serial := quickParallelBudgets(1)
	parallel := quickParallelBudgets(8)

	st, sc, slast := runRepeated(p, cfg, serial)
	pt, pc, plast := runRepeated(p, cfg, parallel)

	if st != pt || sc != pc {
		t.Fatalf("aggregates diverged:\n serial   tests=%+v cov=%+v\n parallel tests=%+v cov=%+v", st, sc, pt, pc)
	}
	if slast.HLTests != plast.HLTests || slast.LLPaths != plast.LLPaths ||
		slast.Coverage != plast.Coverage || slast.VirtTime != plast.VirtTime {
		t.Fatalf("last repetition diverged:\n serial   %+v\n parallel %+v", slast, plast)
	}
}

// TestTable3ParallelDeterminism runs a full table runner twice — serial
// (-parallel 1) and parallel (-parallel 8) — and asserts the rendered table
// strings are byte-for-byte identical.
func TestTable3ParallelDeterminism(t *testing.T) {
	serial := RenderTable3(Table3(quickParallelBudgets(1)))
	parallel := RenderTable3(Table3(quickParallelBudgets(8)))
	if serial != parallel {
		t.Fatalf("Table 3 output depends on scheduling:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestFig8ParallelDeterminism runs a full figure runner twice — serial and
// at 8 workers — and asserts the rendered figure strings are byte-for-byte
// identical. Together with the Table 3 test this covers the acceptance
// criterion: one table and one figure proven schedule-independent.
func TestFig8ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	serial := RenderFig8(Fig8(quickParallelBudgets(1)))
	parallel := RenderFig8(Fig8(quickParallelBudgets(8)))
	if serial != parallel {
		t.Fatalf("Figure 8 output depends on scheduling:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunPortfolioParallelDeterminism checks that the portfolio driver's
// deterministic merge gives identical results for serial and parallel
// member execution.
func TestRunPortfolioParallelDeterminism(t *testing.T) {
	p, _ := packages.ByName("simplejson")
	var members []chef.PortfolioMember
	names := interp.OptLevelNames()
	for li, lvl := range interp.OptLevels() {
		members = append(members, chef.PortfolioMember{Name: names[li], Prog: p.Test(lvl).Program()})
	}
	run := func(workers int) chef.PortfolioResult {
		return chef.RunPortfolio(members, chef.Options{
			Strategy:  chef.StrategyCUPAPath,
			Seed:      7,
			StepLimit: 30_000,
		}, workers, 800_000)
	}
	serial := run(1)
	parallel := run(8)
	if len(serial.Tests) != len(parallel.Tests) {
		t.Fatalf("merged path counts diverged: serial %d, parallel %d", len(serial.Tests), len(parallel.Tests))
	}
	for i := range serial.Tests {
		if serial.Tests[i].HLSig != parallel.Tests[i].HLSig {
			t.Fatalf("merged test %d diverged: serial sig %x, parallel sig %x", i, serial.Tests[i].HLSig, parallel.Tests[i].HLSig)
		}
	}
	for i := range serial.PerBuild {
		if serial.PerBuild[i] != parallel.PerBuild[i] || serial.NewPerBuild[i] != parallel.NewPerBuild[i] {
			t.Fatalf("per-build counts diverged at member %d: serial (%d,%d), parallel (%d,%d)",
				i, serial.PerBuild[i], serial.NewPerBuild[i], parallel.PerBuild[i], parallel.NewPerBuild[i])
		}
	}
}

// TestHarnessMetricsAccumulate checks that the harness's registry sees
// every session: its solver counters equal the sum of the per-session
// snapshots, and the cache accounting is consistent (hits + misses ==
// cacheable queries).
func TestHarnessMetricsAccumulate(t *testing.T) {
	p, _ := packages.ByName("cliargs")
	b := quickParallelBudgets(4)
	b.Metrics = obs.NewRegistry()
	results := runCells(b, repCells(p, FourConfigurations(true)[0], b))
	if len(results) != b.Reps {
		t.Fatalf("harness ran %d sessions, want %d", len(results), b.Reps)
	}
	var sum solver.Stats
	for _, r := range results {
		sum.Add(r.Solver)
	}
	if sum.Queries <= 0 {
		t.Fatal("harness recorded no solver queries")
	}
	for name, want := range map[string]int64{
		obs.MSolverQueries:     sum.Queries,
		obs.MSolverCacheHits:   sum.CacheHits,
		obs.MSolverCacheMisses: sum.CacheMisses,
	} {
		if got := b.Metrics.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, sessions sum to %d", name, got, want)
		}
	}
	if sum.CacheHits+sum.CacheMisses <= 0 || sum.CacheHits+sum.CacheMisses > sum.Queries {
		t.Fatalf("cache accounting inconsistent: hits=%d misses=%d queries=%d",
			sum.CacheHits, sum.CacheMisses, sum.Queries)
	}
}

// TestBudgetsWorkers pins the worker-count policy.
func TestBudgetsWorkers(t *testing.T) {
	if (Budgets{Parallel: 3}).Workers() != 3 {
		t.Fatal("explicit Parallel not honored")
	}
	if (Budgets{}).Workers() < 1 {
		t.Fatal("default workers must be >= 1")
	}
}

// parallelGridBudgets is the workload for the worker-pool benches: a slice of
// the §6.3 grid big enough that parallel scheduling matters.
func parallelGridBudgets(workers int) Budgets {
	return Budgets{Time: 400_000, StepLimit: 30_000, Reps: 2, Seed: 1, Parallel: workers}
}

// runParallelGridSlice runs a 4-package x 4-configuration x 2-repetition
// slice of the evaluation grid and returns the total test count (to keep the
// compiler honest and to assert serial/parallel agreement).
func runParallelGridSlice(b Budgets) int {
	configs := FourConfigurations(true)
	total := 0
	for _, name := range []string{"simplejson", "HTMLParser", "JSON", "cliargs"} {
		p, _ := packages.ByName(name)
		for _, cfg := range configs {
			t, _, _ := runRepeated(p, cfg, b)
			total += int(t.Mean * float64(b.Reps))
		}
	}
	return total
}

// BenchmarkParallelGrid measures the experiment grid under the worker pool.
// Sub-benchmarks run the same workload serial (-parallel 1) and at 4 workers;
// the parallel run also reports its wall-clock speedup over a serial
// reference measured in the same process. On a >= 4-core machine the speedup
// at 4 workers is >= 2x; on fewer cores it degrades gracefully toward 1x
// (the pool adds no measurable overhead).
func BenchmarkParallelGrid(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		bud := parallelGridBudgets(1)
		for i := 0; i < b.N; i++ {
			runParallelGridSlice(bud)
		}
	})
	b.Run("parallel-4", func(b *testing.B) {
		serialBud := parallelGridBudgets(1)
		parBud := parallelGridBudgets(4)
		var serialNs, parNs int64
		var serialTests, parTests int
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			serialTests = runParallelGridSlice(serialBud)
			serialNs += time.Since(t0).Nanoseconds()
			t1 := time.Now()
			parTests = runParallelGridSlice(parBud)
			parNs += time.Since(t1).Nanoseconds()
		}
		if serialTests != parTests {
			b.Fatalf("parallel grid diverged: serial %d tests, parallel %d", serialTests, parTests)
		}
		if parNs > 0 {
			b.ReportMetric(float64(serialNs)/float64(parNs), "speedup-x")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
}
