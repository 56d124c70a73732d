// Command chef-experiments regenerates the paper's tables and figures
// (Tables 2-4, Figures 8-12) plus the §6.6 reference-implementation
// cross-check, printing each as a text table.
//
// Usage:
//
//	chef-experiments -experiment all
//	chef-experiments -experiment fig8 -budget 3000000 -reps 3
package main

import (
	chefPkg "chef/internal/chef"
	"flag"
	"fmt"
	"os"
	"strings"

	"chef/internal/dedicated"
	"chef/internal/experiments"
	"chef/internal/faults"
	"chef/internal/interp"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/obscli"
	"chef/internal/packages"
	"chef/internal/solver"
	"chef/internal/symexpr"
)

func main() {
	var (
		which    = flag.String("experiment", "all", "all | table2 | table3 | table4 | fig8 | fig9 | fig10 | fig11 | fig12 | nicebug | portfolio | crosscheck")
		budget   = flag.Int64("budget", 3_000_000, "virtual-time budget per session")
		stepCap  = flag.Int64("steplimit", 60_000, "per-run hang threshold")
		reps     = flag.Int("reps", 3, "repetitions per data point")
		seed     = flag.Int64("seed", 1, "base seed")
		frames   = flag.Int("frames", 4, "max symbolic frames for fig12")
		parallel = flag.Int("parallel", 0, "worker goroutines for the session grid (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
		shards   = flag.Int("shards", 0, "sharded exploration per session cell: split the path space across signature-subtree ranges driven by up to N epoch workers (0 = plain sessions; output is identical for every N >= 1)")
		cfile    = flag.String("cachefile", "", "persistent counterexample cache: load solved queries from this file at startup, append new ones")
		fspec    = flag.String("faults", "", "deterministic fault-injection plan, e.g. 'seed=7;solver.unknown:p=0.05;worker.stall:session=2' (see docs/ROBUSTNESS.md)")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.Start("chef-experiments"); err != nil {
		fmt.Fprintf(os.Stderr, "chef-experiments: %v\n", err)
		os.Exit(1)
	}
	b := experiments.Budgets{
		Time: *budget, StepLimit: *stepCap, Reps: *reps, Seed: *seed, Parallel: *parallel,
		Shards:  *shards,
		Metrics: obsFlags.Registry(), Tracer: obsFlags.Tracer(), Spans: obsFlags.SpansEnabled(),
	}
	plan, err := faults.Parse(*fspec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef-experiments: -faults: %v\n", err)
		os.Exit(1)
	}
	b.Faults = plan
	if *cfile != "" {
		persist, err := solver.OpenPersistentStore(*cfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chef-experiments: -cachefile: %v\n", err)
			os.Exit(1)
		}
		if cerr := persist.Corruption(); cerr != nil {
			fmt.Fprintf(os.Stderr, "chef-experiments: -cachefile: %v; continuing with the %d valid entries (appends disabled)\n",
				cerr, persist.Loaded())
		}
		b.Persist = persist
		if plan != nil {
			pin := plan.Injector("persist")
			pin.Instrument(obsFlags.Registry())
			persist.SetFaults(pin)
		}
	}

	run := map[string]func(){
		"table2":    func() { fmt.Println(experiments.RenderTable2(experiments.Table2())) },
		"table3":    func() { fmt.Println(experiments.RenderTable3(experiments.Table3(b))) },
		"table4":    func() { fmt.Println(experiments.RenderTable4(experiments.Table4())) },
		"fig8":      func() { fmt.Println(experiments.RenderFig8(experiments.Fig8(b))) },
		"fig9":      func() { fmt.Println(experiments.RenderFig9(experiments.Fig9(b))) },
		"fig10":     func() { fmt.Println(experiments.RenderFig10(experiments.Fig10(b))) },
		"fig11":     func() { fmt.Println(experiments.RenderFig11(experiments.Fig11(b))) },
		"fig12":     func() { fmt.Println(experiments.RenderFig12(experiments.Fig12(*frames, b))) },
		"nicebug":   func() { nicebug() },
		"portfolio": func() { portfolio(b) },
		"crosscheck": func() {
			r, err := experiments.CrossCheck(2, 2, false, b)
			if err != nil {
				fmt.Fprintf(os.Stderr, "crosscheck: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(experiments.RenderCrossCheck("dedicated engine vs CHEF HL paths (MAC controller, 2 frames)", r))
		},
	}
	order := []string{"table2", "table3", "table4", "fig8", "fig9", "fig10", "fig11", "fig12", "nicebug", "portfolio", "crosscheck"}

	finishObs := func() {
		if b.Persist != nil {
			// Close first so the retry/loss counters are final when copied
			// into the metrics dump; a close failure means appended entries
			// were lost — exit nonzero after flushing the sinks.
			cerr := b.Persist.Close()
			obsFlags.SetPersistStats(b.Persist.Stats())
			if cerr != nil {
				obsFlags.Finish(os.Stdout)
				fmt.Fprintf(os.Stderr, "chef-experiments: -cachefile: %v\n", cerr)
				os.Exit(1)
			}
		}
		if err := obsFlags.Finish(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "chef-experiments: %v\n", err)
			os.Exit(1)
		}
	}

	name := strings.ToLower(*which)
	if name == "all" {
		for _, k := range order {
			fmt.Printf("==== %s ====\n", k)
			run[k]()
		}
		finishObs()
		return
	}
	f, ok := run[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "chef-experiments: unknown experiment %q\n", *which)
		os.Exit(1)
	}
	f()
	finishObs()
}

// nicebug reproduces the §6.6 reference-implementation experiment: the
// dedicated engine with the historical "if not <expr>" bug produces
// redundant tests and misses a feasible path, which the CHEF-derived engine
// exposes.
func nicebug() {
	src := `
def f(x):
    if not x == 5:
        return 0
    return 1
`
	prog := minipy.MustCompile(src)
	x := dedicated.IntV{E: symexpr.SExt(symexpr.NewVar(symexpr.Var{Buf: "x", W: symexpr.W32}), symexpr.W64)}

	report := func(label string, bug bool) int {
		e := dedicated.New(prog, dedicated.Options{BugCompat: bug})
		if err := e.Explore("f", []dedicated.Value{x}); err != nil {
			fmt.Fprintf(os.Stderr, "nicebug: %v\n", err)
			os.Exit(1)
		}
		behaviors := map[bool]bool{}
		for _, tc := range e.Tests() {
			behaviors[int32(tc.Input[symexpr.Var{Buf: "x", W: symexpr.W32}]) == 5] = true
		}
		fmt.Printf("%-28s %d tests covering %d distinct behaviors\n", label, len(e.Tests()), len(behaviors))
		return len(behaviors)
	}
	fmt.Println("NICE 'if not <expr>' bug cross-check (target: f(x) = [x != 5])")
	good := report("dedicated engine (fixed):", false)
	bad := report("dedicated engine (buggy):", true)
	if bad < good {
		fmt.Println("=> the buggy engine generates redundant test cases and misses a feasible path,")
		fmt.Println("   detected by tracking its tests along the CHEF-generated high-level paths.")
	}
}

// portfolio runs the §6.5 extension the paper proposes for large packages:
// a portfolio of interpreter builds, each exploring under a share of the
// budget, with high-level paths merged across builds.
func portfolio(b experiments.Budgets) {
	p, _ := packages.ByName("xlrd")
	var ms []chefPkg.PortfolioMember
	names := interp.OptLevelNames()
	for i, lvl := range interp.OptLevels() {
		ms = append(ms, chefPkg.PortfolioMember{Name: names[i], Prog: p.Test(lvl).Program()})
	}
	opts := chefPkg.Options{
		Strategy: chefPkg.StrategyCUPAPath, Seed: b.Seed, StepLimit: b.StepLimit, Parallel: b.Parallel,
		Metrics: b.Metrics, Tracer: b.Tracer, Faults: b.Faults,
	}
	if b.Spans {
		// Non-nil Spans asks RunPortfolio for per-member profilers (members
		// run concurrently; profilers are single-goroutine).
		opts.Spans = obs.NewSpanProfiler(b.Metrics, b.Tracer)
	}
	res := chefPkg.RunPortfolio(ms, opts, b.Time)
	fmt.Printf("Portfolio over %d interpreter builds of xlrd (total budget %d):\n", len(ms), b.Time)
	for i, m := range ms {
		fmt.Printf("  %-30s %5d paths, %4d new to the portfolio\n", m.Name, res.PerBuild[i], res.NewPerBuild[i])
	}
	fmt.Printf("  merged distinct high-level paths: %d\n", len(res.Tests))
}
