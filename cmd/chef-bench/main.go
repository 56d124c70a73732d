// Command chef-bench runs the fixed benchmark matrix behind the repo's
// continuous benchmark trajectory and writes one schema-versioned JSON point
// (BENCH_<pr>.json, see internal/benchfmt). The matrix is deliberately
// small and fully deterministic: both interpreters, cold versus warm
// persistent cache, serial versus parallel workers, warm sharded-
// exploration cells at 1, 2 and 4 shard workers, incremental-solver cells
// (cold/warm at 1 and 4 shards) and deep-path DFS cell pairs (oneshot,
// incremental) that measure the incremental backend's per-query solver
// speedup, asserted as a geometric mean across the deep-path package set —
// all at seed 42. The decision-diagram backend's dfs cells and its speedup
// gate are gone with the backend, which lost to incremental in wall clock
// on every measured package; historic files that carry those cells still
// validate. The deterministic columns (tests, virtual time, span virtual
// aggregates) make drift between two trajectory points attributable to
// code changes; the wall-clock columns record what the host actually paid —
// including the shard-scaling ratio (virtual throughput at 4 shards over 1
// shard).
//
// Usage:
//
//	chef-bench -out BENCH_10.json
//	chef-bench -micro -out /tmp/bench.json   # 1-config smoke matrix for CI
//	chef-bench -validate BENCH_10.json       # schema + determinism check
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"chef/internal/benchfmt"
	"chef/internal/chef"
	"chef/internal/experiments"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed      = flag.Int64("seed", 42, "base session seed")
		budget    = flag.Int64("budget", 600_000, "virtual-time budget per session")
		stepCap   = flag.Int64("steplimit", 30_000, "per-run hang threshold")
		reps      = flag.Int("reps", 2, "sessions (distinct seeds) per configuration")
		out       = flag.String("out", "BENCH_10.json", "output file")
		bench     = flag.String("bench", "fixed-matrix", "matrix name recorded in the file")
		micro     = flag.Bool("micro", false, "run the 1-config smoke matrix (CI): simplejson, cold+warm, serial, 1 rep, reduced budget")
		validate  = flag.String("validate", "", "validate an existing BENCH file and exit")
		assertInc = flag.Float64("assert-inc-speedup", 0, "with -validate: require the incremental dfs cells' per-query solver virtual cost to beat the oneshot dfs cells by at least this ratio")
	)
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chef-bench: %v\n", err)
			return 1
		}
		f, err := benchfmt.Parse(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chef-bench: %s: %v\n", *validate, err)
			return 1
		}
		fmt.Printf("chef-bench: %s ok (%s, %d configs, seed %d, %s)\n",
			*validate, f.Schema, len(f.Configs), f.Seed, f.GoVersion)
		if *assertInc > 0 {
			if err := assertIncSpeedup(f, *assertInc); err != nil {
				fmt.Fprintf(os.Stderr, "chef-bench: %s: %v\n", *validate, err)
				return 1
			}
		}
		return 0
	}

	pkgNames := []string{"simplejson", "JSON"}
	caches := []string{"cold", "warm"}
	workerCounts := []int{1, 4}
	// Sharded cells run warm (the persist view is the shared warmth layer of
	// a sharded session) at 1, 2 and 4 epoch workers; the 1-shard cell is the
	// sharded semantics' own serial baseline for the scaling ratio.
	shardCounts := []int{1, 2, 4}
	// Incremental-solver cells run the sharded semantics cold and warm at
	// these shard counts; the deep-path pair below carries the speedup
	// signal, these carry the determinism contract (1 == 4 at each warmth).
	incShardCounts := []int{1, 4}
	deepPath := true
	// Deep-path-only packages: heavier solver workloads that run just the
	// dfs speedup pair, not the full cache/worker/shard matrix. They bound
	// wall time while anchoring the aggregate speedup gate in the deep
	// arithmetic workloads incremental solving exists for; the parser
	// packages above contribute their (lower) ratios to the same geomean.
	// flagmaze is the bench-only boolean-dominated target (every branch
	// condition a single-byte flag); see packages.Benchmarks.
	deepPkgNames := []string{"moonscript", "xlrd", "flagmaze"}
	if *micro {
		pkgNames = []string{"simplejson"}
		workerCounts = []int{1}
		shardCounts = []int{1, 2}
		incShardCounts = nil
		deepPath = false
		deepPkgNames = nil
		*reps = 1
		*bench = "micro"
		if *budget > 200_000 {
			*budget = 200_000
		}
	}

	cfg := experiments.Configuration{
		Name:     "cupa+opt",
		Strategy: chef.StrategyCUPAPath,
		PyCfg:    minipy.Optimized,
		LuaCfg:   minilua.Optimized,
	}
	file := benchfmt.File{
		Schema:    benchfmt.SchemaVersion,
		Bench:     *bench,
		Seed:      *seed,
		Budget:    *budget,
		StepLimit: *stepCap,
		Reps:      *reps,
		GoVersion: runtime.Version(),
	}

	tmp, err := os.MkdirTemp("", "chef-bench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef-bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	base := experiments.Budgets{
		Time: *budget, StepLimit: *stepCap, Reps: *reps, Seed: *seed,
		CacheMode: solver.CacheExact, Spans: true,
	}
	for _, name := range pkgNames {
		p, ok := packages.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "chef-bench: unknown package %q\n", name)
			return 1
		}
		// Warm cells share one store per package, populated by an identical
		// unmeasured pass: its read side is then fixed, so the measured warm
		// run must reproduce the cold run's tests and virtual time exactly.
		warmFile := filepath.Join(tmp, name+".ndjson")
		if err := prewarm(p, cfg, base, warmFile); err != nil {
			fmt.Fprintf(os.Stderr, "chef-bench: prewarm %s: %v\n", name, err)
			return 1
		}
		for _, cache := range caches {
			for _, workers := range workerCounts {
				c, err := runCell(p, cfg, base, cache, workers, 0, warmFile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "chef-bench: %s: %v\n", c.Name, err)
					return 1
				}
				fmt.Printf("%-32s tests=%-5d virt=%-10d wall=%s\n",
					c.Name, c.Tests, c.VirtTime, time.Duration(c.WallNs).Round(time.Millisecond))
				file.Configs = append(file.Configs, c)
			}
		}
		for _, shards := range shardCounts {
			c, err := runCell(p, cfg, base, "warm", 1, shards, warmFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chef-bench: %s: %v\n", c.Name, err)
				return 1
			}
			fmt.Printf("%-32s tests=%-5d virt=%-10d wall=%s\n",
				c.Name, c.Tests, c.VirtTime, time.Duration(c.WallNs).Round(time.Millisecond))
			file.Configs = append(file.Configs, c)
		}
		printShardScaling(p.Name, file.Configs)

		// Incremental-solver cells: the sharded semantics, cold and warm, at
		// 1 and 4 shard workers. Incremental solves are never persisted (an
		// incremental model is a function of its solver's whole query
		// stream; see solver.Options.SolverMode), so the warm cells read the
		// package's oneshot store. A persist hit bypasses the live context,
		// so warm and cold incremental cells form separate determinism
		// groups (see benchfmt).
		if len(incShardCounts) > 0 {
			incBase := base
			incBase.SolverMode = solver.ModeIncremental
			for _, cache := range caches {
				for _, shards := range incShardCounts {
					c, err := runCell(p, cfg, incBase, cache, 1, shards, warmFile)
					if err != nil {
						fmt.Fprintf(os.Stderr, "chef-bench: %s: %v\n", c.Name, err)
						return 1
					}
					fmt.Printf("%-32s tests=%-5d virt=%-10d wall=%s\n",
						c.Name, c.Tests, c.VirtTime, time.Duration(c.WallNs).Round(time.Millisecond))
					file.Configs = append(file.Configs, c)
				}
			}
		}

		if deepPath {
			if err := runDeepPair(p, cfg, base, &file); err != nil {
				fmt.Fprintf(os.Stderr, "chef-bench: %v\n", err)
				return 1
			}
		}
	}

	for _, name := range deepPkgNames {
		p, ok := packages.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "chef-bench: unknown package %q\n", name)
			return 1
		}
		if err := runDeepPair(p, cfg, base, &file); err != nil {
			fmt.Fprintf(os.Stderr, "chef-bench: %v\n", err)
			return 1
		}
	}

	if err := file.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "chef-bench: result failed validation: %v\n", err)
		return 1
	}
	data, err := benchfmt.Marshal(&file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef-bench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chef-bench: %v\n", err)
		return 1
	}
	fmt.Printf("chef-bench: wrote %d configs to %s\n", len(file.Configs), *out)
	return 0
}

// runDeepPair runs the deep-path DFS cell pair for p: DFS drives the path
// condition deep with long shared prefixes between consecutive queries —
// the workload the incremental backend exists for. Both backends run cold,
// so each cell's wall time is its backend actually solving, and the ratio
// of per-query solver costs is the solver-layer virtual speedup (printed
// per package, asserted in aggregate by -assert-inc-speedup).
func runDeepPair(p *packages.Package, cfg experiments.Configuration, base experiments.Budgets,
	file *benchfmt.File) error {
	dfsCfg := cfg
	dfsCfg.Name = "dfs+opt"
	dfsCfg.Strategy = chef.StrategyDFS
	for _, sm := range []solver.SolverMode{solver.ModeOneshot, solver.ModeIncremental} {
		dfsBase := base
		dfsBase.SolverMode = sm
		c, err := runCell(p, dfsCfg, dfsBase, "cold", 1, 0, "")
		if err != nil {
			return fmt.Errorf("%s: %v", c.Name, err)
		}
		fmt.Printf("%-32s tests=%-5d virt=%-10d wall=%s\n",
			c.Name, c.Tests, c.VirtTime, time.Duration(c.WallNs).Round(time.Millisecond))
		file.Configs = append(file.Configs, c)
	}
	printIncSpeedup(p.Name, file.Configs)
	return nil
}

// prewarm populates path's persistent store with the queries of an
// unmeasured pass over the same matrix cell parameters.
func prewarm(p *packages.Package, cfg experiments.Configuration, b experiments.Budgets, path string) error {
	store, err := solver.OpenPersistentStore(path)
	if err != nil {
		return err
	}
	b.Persist = store
	b.Parallel = 1
	b.Spans = false
	experiments.RunRepeated(p, cfg, b)
	return store.Close()
}

// runCell measures one matrix cell: Reps sessions of p under cfg, totals
// read from a cell-private metrics registry (sessions merge their child
// registries into it, so totals are schedule-independent). shards > 0 runs
// each session as a sharded exploration (warm persist shared, private
// in-memory caches) driven by up to shards epoch workers.
func runCell(p *packages.Package, cfg experiments.Configuration, b experiments.Budgets,
	cache string, workers, shards int, warmFile string) (benchfmt.Config, error) {
	c := cellConfig(p, cfg, b, cache, workers, shards)
	reg := obs.NewRegistry()
	b.Metrics = reg
	b.Parallel = workers
	b.Shards = shards
	if cache == "warm" {
		// Each warm cell reads a private copy of the store: a cell's
		// sessions may append queries the prewarm stream missed, and a
		// shared file would leak those appends into the next cell's read
		// side, breaking cell-order independence.
		data, err := os.ReadFile(warmFile)
		if err != nil {
			return c, err
		}
		cellFile := warmFile + ".cell"
		if err := os.WriteFile(cellFile, data, 0o644); err != nil {
			return c, err
		}
		store, err := solver.OpenPersistentStore(cellFile)
		if err != nil {
			return c, err
		}
		defer store.Close()
		b.Persist = store
	}
	start := time.Now()
	experiments.RunRepeated(p, cfg, b)
	c.WallNs = int64(time.Since(start))
	if shards > 0 {
		// Cell sessions count their pre-dedup tests under chef.tests; the
		// cross-range deduplicated total is the comparable one.
		c.Tests = reg.Counter(obs.MChefTestsMerged).Value()
		c.VirtMakespan = reg.Counter(obs.MShardVirtMakespan).Value()
	} else {
		c.Tests = reg.Counter(obs.MChefTests).Value()
	}
	c.Spans = reg.SpanAggregates()
	for _, sp := range c.Spans {
		if sp.Layer == obs.SpanChefSession {
			c.VirtTime = sp.VirtTotal
		}
	}
	return c, nil
}

// cellConfig names and describes one matrix cell, before it is measured.
func cellConfig(p *packages.Package, cfg experiments.Configuration, b experiments.Budgets,
	cache string, workers, shards int) benchfmt.Config {
	seg := p.Name
	strategy := ""
	if cfg.Strategy == chef.StrategyDFS {
		seg += "/dfs"
		strategy = "dfs"
	}
	solverMode := ""
	if b.SolverMode == solver.ModeIncremental {
		seg += "/inc"
		solverMode = "incremental"
	}
	name := fmt.Sprintf("%s/%s/w%d", seg, cache, workers)
	if shards > 0 {
		name = fmt.Sprintf("%s/%s/s%d", seg, cache, shards)
	}
	return benchfmt.Config{
		Name:       name,
		Package:    p.Name,
		Language:   strings.ToLower(p.Lang.String()),
		Cache:      cache,
		Workers:    workers,
		Shards:     shards,
		SolverMode: solverMode,
		Strategy:   strategy,
		Sessions:   b.Reps,
	}
}

// printShardScaling reports the scaling payoff of sharding: the ratio of
// virtual throughput (VirtTime / VirtMakespan, virtual time explored per
// unit of the epoch schedule's critical path) between the 4-shard and
// 1-shard warm cells of one package. The makespan is the deterministic
// analogue of parallel wall time — at 1 shard it equals VirtTime, at 4 it
// is the per-epoch max worker load summed — so the ratio measures how well
// the range partition balances, independent of host core count. The
// deterministic result columns of those cells are identical by
// construction; only the makespan varies with the worker count.
func printShardScaling(pkg string, configs []benchfmt.Config) {
	var s1, s4 *benchfmt.Config
	for i := range configs {
		c := &configs[i]
		if c.Package != pkg || c.Shards == 0 {
			continue
		}
		switch c.Shards {
		case 1:
			s1 = c
		case 4:
			s4 = c
		}
	}
	if s1 == nil || s4 == nil {
		return
	}
	if s1.VirtMakespan <= 0 || s4.VirtMakespan <= 0 {
		return
	}
	t1 := float64(s1.VirtTime) / float64(s1.VirtMakespan)
	t4 := float64(s4.VirtTime) / float64(s4.VirtMakespan)
	fmt.Printf("%-32s 4-shard virtual throughput %.2fx the 1-shard baseline\n",
		pkg+" shard scaling", t4/t1)
}

// solverCheckPerQuery returns the average virtual cost of one solver.check
// span in c (VirtTotal/Count), or 0 when the span is absent.
func solverCheckPerQuery(c *benchfmt.Config) float64 {
	for i := range c.Spans {
		sp := &c.Spans[i]
		if sp.Layer == obs.SpanSolverCheck && sp.Count > 0 {
			return float64(sp.VirtTotal) / float64(sp.Count)
		}
	}
	return 0
}

// incSpeedup finds pkg's oneshot and incremental dfs cells and returns the
// oneshot/incremental ratio of per-query solver virtual cost — the
// solver-layer speedup of the incremental backend on the deep-path workload.
func incSpeedup(pkg string, configs []benchfmt.Config) (float64, bool) {
	var one, inc *benchfmt.Config
	for i := range configs {
		c := &configs[i]
		if c.Package != pkg || c.Strategy != "dfs" {
			continue
		}
		switch c.SolverMode {
		case "":
			one = c
		case "incremental":
			inc = c
		}
	}
	if one == nil || inc == nil {
		return 0, false
	}
	po, pi := solverCheckPerQuery(one), solverCheckPerQuery(inc)
	if po <= 0 || pi <= 0 {
		return 0, false
	}
	return po / pi, true
}

// printIncSpeedup reports the deep-path solver-layer speedup of the
// incremental backend for one package.
func printIncSpeedup(pkg string, configs []benchfmt.Config) {
	if r, ok := incSpeedup(pkg, configs); ok {
		fmt.Printf("%-32s incremental per-query solver cost %.2fx cheaper than oneshot (dfs)\n",
			pkg+" inc speedup", r)
	}
}

// assertIncSpeedup requires the aggregate solver-layer speedup of the
// incremental backend — the geometric mean of the per-package dfs cell
// pair ratios — to be at least min, with at least one pair present.
// Individual packages may sit below the bar: on short-query parser
// workloads the sliced path conditions are shallow and per-query cost is
// dominated by asserting the few fresh suffix constraints, which both
// backends pay, so the ratio plateaus near 1.2-1.5x; deep arithmetic
// workloads exceed 3x. The contract is the aggregate over the matrix's
// deep-path set, not a per-package floor.
func assertIncSpeedup(f *benchfmt.File, min float64) error {
	seen := map[string]bool{}
	logSum, pairs := 0.0, 0
	for i := range f.Configs {
		pkg := f.Configs[i].Package
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		r, ok := incSpeedup(pkg, f.Configs)
		if !ok {
			continue
		}
		pairs++
		logSum += math.Log(r)
		fmt.Printf("chef-bench: %s incremental solver speedup %.2fx\n", pkg, r)
	}
	if pairs == 0 {
		return fmt.Errorf("-assert-inc-speedup: no dfs oneshot/incremental cell pairs in file")
	}
	agg := math.Exp(logSum / float64(pairs))
	if agg < min {
		return fmt.Errorf("aggregate incremental speedup %.2fx (geomean over %d packages) below required %.2fx", agg, pairs, min)
	}
	fmt.Printf("chef-bench: aggregate incremental solver speedup %.2fx over %d packages (>= %.2fx)\n", agg, pairs, min)
	return nil
}
