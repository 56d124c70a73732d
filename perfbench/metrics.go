package main

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json (checked by
// TestTablesMatchBenchmarkJSON); every later performance claim cites these
// names.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd metrics are what a user of the engine sees, measured with the
// span profiler off (serve-warm jobs always profile, as chef-serve does).
// Every workload reports every one; a "job" is one (package, seed)
// exploration plus the replay of its tests.
var endToEnd = []metricDef{
	{"wall_s", "s"},             // median wall time of one measured pass
	{"tests_per_s", "1/s"},      // hl_tests / wall_s
	{"hl_tests", "count"},       // high-level tests per pass (deterministic per seed)
	{"line_coverage_pct", "%"},  // replayed line coverage over the pass's packages
	{"replay_ok_frac", "ratio"}, // share of tests whose vanilla replay reproduces result and status
	{"setup_s", "s"},            // median of the run's set-ups: compile, server build, prewarm
	{"heap_live_mb", "MB"},      // live heap after a forced GC at the end of a pass
	{"jobs_per_s", "1/s"},       // jobs completed per second of pass wall time
	{"job_p50_ms", "ms"},        // median job latency
	{"job_tail_ms", "ms"},       // highest percentile with >= 10 samples beyond it
	{"job_ok_frac", "ratio"},    // share of jobs that succeeded (no failed or refused call)
}

// layer groups the per-layer metrics of one part of the engine, named
// after its modules, with the end-to-end metric each should move and the
// workloads that put most and little work on it. A later performance claim
// names the layer metric that moved and checks the end-to-end metric here.
type layer struct {
	Modules string      `json:"modules"`
	Moves   string      `json:"moves,omitempty"`
	Most    string      `json:"most_work_in,omitempty"`
	Little  string      `json:"little_work_in,omitempty"`
	Metrics []metricDef `json:"metrics"`
}

// layers come from the traced passes: span aggregates, counters and solver
// statistics the program exports, plus the benchmark's own timers around
// replay, HTTP and set-up. A layer a workload does not exercise reports 0.
var layers = []layer{
	{
		// chef.session.self_ms is the session loop outside engine runs:
		// state selection (cupa), fork bookkeeping and test recording.
		"minipy/minilua + lowlevel + chef + cupa (guest execution)", "wall_s, tests_per_s",
		"parsers-cupa", "deep-dfs",
		[]metricDef{
			{"chef.session.self_ms", "ms"},
			{"engine.run.self_ms", "ms"},
			{"engine.run.us_per_run", "us"},
			{"engine.runs", "count"},
			{"engine.forks", "count"},
			{"engine.llpaths", "count"},
			{"chef.logpc", "count"},
			{"cupa.selections", "count"},
			{"engine.hl_yield", "ratio"}, // hl tests per low-level path (Fig. 10)
			{"engine.dup_frac", "ratio"}, // forks skipped as already-seen paths
			{"engine.divergences", "count"},
		},
	},
	{
		"symtest replay (vanilla interpreter)", "wall_s",
		"parsers-cupa", "deep-dfs",
		[]metricDef{
			{"replay.ms", "ms"},
			{"replay.ns_per_step", "ns"},
			{"replay.steps", "count"},
		},
	},
	{
		"solver front end (slice, canon, cache) + symexpr", "wall_s on deep-dfs; job_p50_ms on serve-warm",
		"deep-dfs", "parsers-cupa",
		[]metricDef{
			{"solver.check.self_ms", "ms"},
			{"solver.check.us_per_query", "us"},
			{"solver.queries", "count"},
			{"solver.cache.hit_ratio", "ratio"},
			{"solver.cache_lookup.self_ms", "ms"},
			{"symexpr.interned", "count"},
		},
	},
	{
		"solver back end (blast, CDCL)", "wall_s on deep-dfs",
		"deep-dfs", "serve-warm (bypassed on persist hits)",
		[]metricDef{
			{"solver.blast.self_ms", "ms"},
			{"solver.blast.count", "count"},
			{"solver.blast.us_per_call", "us"},
			{"solver.propagations", "count"},
			{"solver.conflicts", "count"},
			{"solver.unknowns", "count"},
		},
	},
	{
		"solver persist", "job_p50_ms",
		"serve-warm", "parsers-cupa, deep-dfs (no store)",
		[]metricDef{
			{"solver.persist.hit_ratio", "ratio"},
			{"solver.persist_lookup.self_ms", "ms"},
			{"persist.flush.self_ms", "ms"},
			{"solver.persist.appended", "count"},
		},
	},
	{
		// effective_parallelism is engine.run wall over shard.epoch wall.
		"shard + chef.ShardedSession", "job_p50_ms, jobs_per_s",
		"serve-warm", "parsers-cupa, deep-dfs (unsharded)",
		[]metricDef{
			{"shard.epochs", "count"},
			{"shard.epoch.wall_ms", "ms"},
			{"shard.effective_parallelism", "ratio"},
			{"shard.handoffs.states", "count"},
			{"shard.handoff_dup_ratio", "ratio"},
			{"shard.steals", "count"},
		},
	},
	{
		// overhead_ms is client latency minus the job's serve.job span.
		"serve", "job_tail_ms",
		"serve-warm", "parsers-cupa, deep-dfs (no server)",
		[]metricDef{
			{"serve.overhead_ms", "ms"},
			{"serve.submit_ms", "ms"},
			{"serve.jobs.failed", "count"},
		},
	},
	{
		"Go runtime, per pass", "wall_s on deep-dfs; heap_live_mb on serve-warm",
		"all", "",
		[]metricDef{
			{"runtime.alloc_mb", "MB"},
			{"runtime.gc_cpu_frac", "ratio"},
			{"runtime.gc_cycles", "count"},
		},
	},
	{
		"set-up (compile, server build, prewarm)", "setup_s",
		"serve-warm", "parsers-cupa, deep-dfs",
		[]metricDef{
			{"setup.compile_ms", "ms"},
			{"setup.prewarm_s", "s"},
		},
	},
	{
		// trace.overhead_ratio is traced over untraced pass wall time;
		// unattributed_frac is the share of a pass no timer covers.
		"measurement", "",
		"", "",
		[]metricDef{
			{"trace.overhead_ratio", "ratio"},
			{"unattributed_frac", "ratio"},
		},
	},
}

// perLayer is every layer's metrics, in table order.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, l.Metrics...)
	}
	return out
}()
