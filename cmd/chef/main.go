// Command chef runs a symbolic test against one of the evaluation packages
// and emits the generated high-level test cases, playing the role of the
// CHEF invocation in the paper's workflow (Figure 4: symbolic test in, test
// cases out).
//
// The CLI is a thin client of the job API in internal/serve: it builds the
// same serve.JobSpec a POST /v1/jobs body carries and runs it through the
// same serve.Execute entry point chef-serve's workers use, which is what
// makes a served job byte-identical to a CLI run with the same spec and
// seed — by construction, not by parallel maintenance.
//
// Usage:
//
//	chef -package simplejson -strategy cupa-path -budget 3000000 -out tests.ndjson
//
// Observability: -trace writes structured JSONL exploration events (consumed
// by cmd/chef-trace), -metrics prints a counter/histogram dump at exit,
// -httpobs serves expvar+pprof. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/obscli"
	"chef/internal/packages"
	"chef/internal/serve"
	"chef/internal/solver"
	"chef/internal/symtest"
)

func main() {
	var (
		pkgName  = flag.String("package", "simplejson", "target package (see -list)")
		list     = flag.Bool("list", false, "list available packages")
		strategy = flag.String("strategy", "cupa-path", "state selection: random | cupa-path | cupa-coverage | dfs | bfs")
		budget   = flag.Int64("budget", 3_000_000, "virtual-time exploration budget")
		stepCap  = flag.Int64("steplimit", 60_000, "per-run hang threshold (virtual steps)")
		seed     = flag.Int64("seed", 1, "random seed")
		vanilla  = flag.Bool("vanilla", false, "use the unoptimized interpreter build")
		out      = flag.String("out", "", "write generated tests as NDJSON to this file")
		shards   = flag.Int("shards", 0, "sharded exploration: split the path space across signature-subtree ranges driven by up to N epoch workers (0 = plain session; results are identical for every N >= 1)")
		cfile    = flag.String("cachefile", "", "persistent counterexample cache: load solved queries from this file at startup, append new ones")
		fspec    = flag.String("faults", "", "deterministic fault-injection plan, e.g. 'seed=7;solver.unknown:p=0.05;persist.write:err@n=3' (see docs/ROBUSTNESS.md)")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, p := range packages.All() {
			fmt.Printf("%-14s %-7s %5d LOC  %s\n", p.Name, p.Lang, p.LOC(), p.Desc)
		}
		return
	}
	p, ok := packages.ByName(*pkgName)
	if !ok {
		fmt.Fprintf(os.Stderr, "chef: unknown package %q (try -list)\n", *pkgName)
		os.Exit(1)
	}
	if err := checkSeed(*seed); err != nil {
		fmt.Fprintf(os.Stderr, "chef: %v\n", err)
		os.Exit(1)
	}
	spec := serve.JobSpec{
		Package:   *pkgName,
		Strategy:  *strategy,
		Budget:    *budget,
		StepLimit: *stepCap,
		Seed:      *seed,
		Vanilla:   *vanilla,
		Shards:    *shards,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "chef: %v\n", err)
		os.Exit(1)
	}
	plan, err := faults.Parse(*fspec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef: -faults: %v\n", err)
		os.Exit(1)
	}
	var persist *solver.PersistentStore
	if *cfile != "" {
		var err error
		persist, err = solver.OpenPersistentStore(*cfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chef: -cachefile: %v\n", err)
			os.Exit(1)
		}
		if cerr := persist.Corruption(); cerr != nil {
			fmt.Fprintf(os.Stderr, "chef: -cachefile: %v; continuing with the %d valid entries (appends disabled)\n",
				cerr, persist.Loaded())
		}
	}
	if err := obsFlags.Start("chef"); err != nil {
		fmt.Fprintf(os.Stderr, "chef: %v\n", err)
		os.Exit(1)
	}
	var persistInj *faults.Injector
	if persist != nil && plan != nil {
		persistInj = plan.Injector("persist")
		persistInj.Instrument(obsFlags.Registry())
		persist.SetFaults(persistInj)
	}

	eo := serve.ExecOptions{
		Metrics: obsFlags.Registry(),
		Tracer:  obsFlags.Tracer(),
		Spans:   obsFlags.SpanProfiler(),
		Faults:  plan,
		Name:    fmt.Sprintf("%s/%s/%d", *pkgName, *strategy, *seed),
	}
	if persist != nil {
		eo.Persist = persist
		if obsFlags.SpansEnabled() {
			// The flusher goroutine gets its own profiler (profilers are
			// single-goroutine); its spans land in the same registry/trace.
			persist.Attach(solver.Instruments{Spans: obs.NewSpanProfiler(obsFlags.Registry(), obsFlags.Tracer())})
		}
	}
	res, err := serve.Execute(context.Background(), spec, eo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef: %v\n", err)
		os.Exit(1)
	}
	sum := res.Summary
	fmt.Printf("package %s: %d high-level tests from %d low-level paths (%d runs, %d solver-unsat states, clock %d)\n",
		p.Name, len(res.Tests), sum.LLPaths, sum.Runs, sum.UnsatStates, sum.VirtTime)
	if plan != nil {
		line := fmt.Sprintf("faults: %d injected; states requeued %d, abandoned %d",
			sum.FaultsInjected+persistInj.Injected(), sum.RequeuedStates, sum.AbandonedStates)
		if persist != nil {
			line += fmt.Sprintf("; persist retries %d, lost %d", persist.Retries(), persist.Lost())
		}
		fmt.Println(line)
	}

	for _, tc := range res.Tests {
		fmt.Printf("  %-28s %s\n", tc.Result, renderInput(p, tc))
	}
	if *out != "" {
		data, err := symtest.MarshalTests(res.Tests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chef: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chef: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d tests to %s\n", len(res.Tests), *out)
	}

	cs := res.CacheStats
	obsFlags.SetCacheGauges(cs.Entries, cs.Evictions)
	if persist != nil {
		// Close first: it drains (or gives up on) pending writes, so the
		// retry/loss counters are final when copied into the metrics dump.
		// A close failure means appended entries were lost — exit nonzero.
		cerr := persist.Close()
		obsFlags.SetPersistStats(persist.Stats())
		if cerr != nil {
			obsFlags.Finish(os.Stdout)
			fmt.Fprintf(os.Stderr, "chef: -cachefile: %v\n", cerr)
			os.Exit(1)
		}
	}
	if err := obsFlags.Finish(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "chef: %v\n", err)
		os.Exit(1)
	}
}

// checkSeed rejects seed 0. A job spec reads seed 0 as unset and runs
// serve.DefaultSeed instead, so the run would not be the one asked for.
func checkSeed(seed int64) error {
	if seed == 0 {
		return fmt.Errorf("-seed 0 is not a seed: a job spec reads 0 as unset and would run seed %d", serve.DefaultSeed)
	}
	return nil
}

func renderInput(p *packages.Package, tc symtest.SerializedTest) string {
	in, err := symtest.DecodeInput(tc.Input)
	if err != nil {
		return "?"
	}
	return symtest.InputString(in, p.Inputs)
}
