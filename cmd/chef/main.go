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
	"io"
	"os"

	"chef/internal/obscli"
	"chef/internal/packages"
	"chef/internal/serve"
	"chef/internal/symtest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is chef with its arguments and output streams, returning the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chef", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pkgName  = fs.String("package", "simplejson", "target package (see -list)")
		list     = fs.Bool("list", false, "list available packages")
		strategy = fs.String("strategy", "cupa-path", "state selection: random | cupa-path | cupa-coverage | dfs | bfs")
		budget   = fs.Int64("budget", 3_000_000, "virtual-time exploration budget")
		stepCap  = fs.Int64("steplimit", 60_000, "per-run hang threshold (virtual steps)")
		seed     = fs.Int64("seed", 1, "random seed")
		vanilla  = fs.Bool("vanilla", false, "use the unoptimized interpreter build")
		out      = fs.String("out", "", "write generated tests as NDJSON to this file")
		shards   = fs.Int("shards", 0, "sharded exploration: split the path space across signature-subtree ranges driven by up to N epoch workers (0 = plain session; results are identical for every N >= 1)")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "chef: %v\n", err)
		return 1
	}

	if *list {
		for _, p := range packages.All() {
			fmt.Fprintf(stdout, "%-14s %-7s %5d LOC  %s\n", p.Name, p.Lang, p.LOC(), p.Desc)
		}
		return 0
	}
	p, ok := packages.ByName(*pkgName)
	if !ok {
		return fail(fmt.Errorf("unknown package %q (try -list)", *pkgName))
	}
	if err := checkArgs(*seed, *budget, *stepCap); err != nil {
		return fail(err)
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
		return fail(err)
	}
	if err := obsFlags.Start("chef"); err != nil {
		return fail(err)
	}
	plan, persist := obsFlags.Faults(), obsFlags.Store()

	eo := serve.ExecOptions{
		Metrics: obsFlags.Registry(),
		Tracer:  obsFlags.Tracer(),
		Spans:   obsFlags.SpanProfiler(),
		Faults:  plan,
		Name:    fmt.Sprintf("%s/%s/%d", *pkgName, *strategy, *seed),
		// Taken before any append: the run answers exactly the entries the
		// file held at startup.
		Persist: persist.View(),
	}
	res, err := serve.Execute(context.Background(), spec, eo)
	if err != nil {
		return fail(err)
	}
	sum := res.Summary
	fmt.Fprintf(stdout, "package %s: %d high-level tests from %d low-level paths (%d runs, %d solver-unsat states, clock %d)\n",
		p.Name, len(res.Tests), sum.LLPaths, sum.Runs, sum.UnsatStates, sum.VirtTime)

	for _, tc := range res.Tests {
		fmt.Fprintf(stdout, "  %-28s %s\n", tc.Result, renderInput(p, tc))
	}
	if *out != "" {
		data, err := symtest.MarshalTests(res.Tests)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %d tests to %s\n", len(res.Tests), *out)
	}

	cs := res.CacheStats
	obsFlags.SetCacheGauges(cs.Entries, cs.Evictions)
	err = obsFlags.Finish(stdout)
	// The faults line comes after Finish closed the store, so it counts
	// what the final flush injected, retried and lost.
	if plan != nil {
		line := fmt.Sprintf("faults: %d injected; states requeued %d, abandoned %d",
			sum.FaultsInjected+obsFlags.PersistInjected(), sum.RequeuedStates, sum.AbandonedStates)
		if persist != nil {
			line += fmt.Sprintf("; persist retries %d, lost %d", persist.Retries(), persist.Lost())
		}
		fmt.Fprintln(stdout, line)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// checkArgs rejects the flag values a job spec reads as unset: seed 0, and
// a budget or step limit <= 0, which the spec replaces with its defaults, so
// the run would not be the one asked for.
func checkArgs(seed, budget, stepLimit int64) error {
	switch {
	case seed == 0:
		return fmt.Errorf("-seed 0 is not a seed: a job spec reads 0 as unset and would run seed %d", serve.DefaultSeed)
	case budget <= 0:
		return fmt.Errorf("-budget %d is not a budget: a job spec reads values <= 0 as unset and would run budget %d", budget, serve.DefaultBudget)
	case stepLimit <= 0:
		return fmt.Errorf("-steplimit %d is not a step limit: a job spec reads values <= 0 as unset and would run step limit %d", stepLimit, serve.DefaultStepLimit)
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
