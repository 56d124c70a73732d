// Package chefbench is the benchmark harness required by DESIGN.md: one
// benchmark per table and figure of the paper's evaluation (§6), plus
// ablation benches for the design choices the reproduction makes
// configurable. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated table/figure once (on the first
// iteration) and reports domain-specific metrics (tests generated, coverage,
// overhead) through testing.B metrics, so the *shape* of the paper's results
// is visible directly in the bench output.
package chefbench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"chef/internal/chef"
	"chef/internal/cupa"
	"chef/internal/dedicated"
	"chef/internal/experiments"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
	"chef/internal/symexpr"
)

// benchBudgets returns budgets small enough for iterated benchmarking while
// still exhibiting every effect.
func benchBudgets() experiments.Budgets {
	return experiments.Budgets{Time: 400_000, StepLimit: 30_000, Reps: 1, Seed: 1}
}

// --- Table benches ---------------------------------------------------------

// BenchmarkTable2Effort regenerates Table 2 (interpreter-preparation
// effort). The table is static; the bench measures its assembly.
func BenchmarkTable2Effort(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderTable2(experiments.Table2())
	}
	if testing.Verbose() {
		fmt.Println(out)
	}
}

// BenchmarkTable3Testing regenerates Table 3: run the full engine on every
// package and classify exceptions and hangs.
func BenchmarkTable3Testing(b *testing.B) {
	bud := benchBudgets()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(bud)
	}
	var excTotal, excUndoc, hangs int
	for _, r := range rows {
		excTotal += r.ExcTotal
		excUndoc += r.ExcUndoc
		if r.Hangs {
			hangs++
		}
	}
	b.ReportMetric(float64(excTotal), "exceptions")
	b.ReportMetric(float64(excUndoc), "undocumented")
	b.ReportMetric(float64(hangs), "hanging-pkgs")
	if testing.Verbose() {
		fmt.Println(experiments.RenderTable3(rows))
	}
}

// BenchmarkTable4Features regenerates the feature matrix.
func BenchmarkTable4Features(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.RenderTable4(experiments.Table4())
	}
	if testing.Verbose() {
		fmt.Println(out)
	}
}

// --- Figure benches --------------------------------------------------------

// BenchmarkFig8TestGeneration regenerates Figure 8: high-level test cases
// per configuration, relative to the baseline. The reported metric is the
// geometric-mean speedup of the aggregate configuration over the baseline.
func BenchmarkFig8TestGeneration(b *testing.B) {
	bud := benchBudgets()
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig8(bud)
	}
	prod, n := 1.0, 0
	for _, r := range rows {
		if r.Ratio[3] > 0 {
			prod *= r.Ratio[3]
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(geomean(prod, n), "aggregate-vs-baseline-x")
	}
	if testing.Verbose() {
		fmt.Println(experiments.RenderFig8(rows))
	}
}

func geomean(prod float64, n int) float64 {
	if n == 0 || prod <= 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// BenchmarkFig9Coverage regenerates Figure 9: line coverage per
// configuration with coverage-optimized CUPA.
func BenchmarkFig9Coverage(b *testing.B) {
	bud := benchBudgets()
	var rows []experiments.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(bud)
	}
	var base, aggr float64
	for _, r := range rows {
		base += r.Coverage[0].Mean
		aggr += r.Coverage[3].Mean
	}
	b.ReportMetric(100*base/float64(len(rows)), "baseline-cov-%")
	b.ReportMetric(100*aggr/float64(len(rows)), "aggregate-cov-%")
	if testing.Verbose() {
		fmt.Println(experiments.RenderFig9(rows))
	}
}

// BenchmarkFig10PathRatio regenerates Figure 10: the fraction of low-level
// paths that yield new high-level paths over time.
func BenchmarkFig10PathRatio(b *testing.B) {
	bud := benchBudgets()
	var series []experiments.Fig10Series
	for i := 0; i < b.N; i++ {
		series = experiments.Fig10(bud)
	}
	for _, s := range series {
		if s.Config == "CUPA + Optimizations" && s.Lang == "Python" {
			b.ReportMetric(100*s.Points[9], "py-aggregate-final-%")
		}
		if s.Config == "Baseline" && s.Lang == "Python" {
			b.ReportMetric(100*s.Points[9], "py-baseline-final-%")
		}
	}
	if testing.Verbose() {
		fmt.Println(experiments.RenderFig10(series))
	}
}

// BenchmarkFig11OptBreakdown regenerates Figure 11: the per-package
// contribution of each cumulative interpreter-optimization level.
func BenchmarkFig11OptBreakdown(b *testing.B) {
	bud := benchBudgets()
	var rows []experiments.Fig11Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig11(bud)
	}
	var noOpt, full float64
	for _, r := range rows {
		noOpt += r.Tests[0].Mean
		full += r.Tests[3].Mean
	}
	b.ReportMetric(noOpt, "tests-noopt")
	b.ReportMetric(full, "tests-fullopt")
	if testing.Verbose() {
		fmt.Println(experiments.RenderFig11(rows))
	}
}

// BenchmarkFig12Overhead regenerates Figure 12: CHEF's per-path overhead
// over the dedicated engine on the MAC-learning controller.
func BenchmarkFig12Overhead(b *testing.B) {
	bud := benchBudgets()
	var pts []experiments.Fig12Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig12(3, bud)
	}
	for _, p := range pts {
		if p.Frames == 3 {
			switch p.Level {
			case "No Optimizations":
				b.ReportMetric(p.Overhead, "overhead-vanilla-x")
			case "+ Fast Path Elimination":
				b.ReportMetric(p.Overhead, "overhead-fullopt-x")
			}
		}
	}
	if testing.Verbose() {
		fmt.Println(experiments.RenderFig12(pts))
	}
}

// --- Ablation benches (DESIGN.md) -------------------------------------------

// BenchmarkAblationCUPALevels compares the 2-level path-optimized CUPA
// (dynamic HLPC x LLPC, the paper's §3.3) with a 1-level variant that
// classifies by dynamic HLPC only, on the vanilla interpreter where
// low-level hot spots are most pronounced.
func BenchmarkAblationCUPALevels(b *testing.B) {
	p, _ := packages.ByName("simplejson")
	bud := benchBudgets()
	oneLevel := func(rng *rand.Rand, _ *chef.CFG) lowlevel.Strategy {
		return cupa.New(rng, []cupa.Level{
			{Key: func(s *lowlevel.State) uint64 { return s.DynHLPC }},
		}, nil)
	}
	run := func(factory func(*rand.Rand, *chef.CFG) lowlevel.Strategy, kind chef.StrategyKind) int {
		pt := p.Test(interp.Vanilla)
		s := chef.NewSession(pt.Program(), chef.Options{
			Strategy:        kind,
			StrategyFactory: factory,
			Seed:            1,
			StepLimit:       bud.StepLimit,
		})
		return len(s.Run(bud.Time))
	}
	var two, one int
	for i := 0; i < b.N; i++ {
		two = run(nil, chef.StrategyCUPAPath)
		one = run(oneLevel, chef.StrategyRandom)
	}
	b.ReportMetric(float64(two), "tests-2level")
	b.ReportMetric(float64(one), "tests-1level")
}

// BenchmarkAblationForkWeight sweeps the fork-weight decay p of §3.4.
func BenchmarkAblationForkWeight(b *testing.B) {
	p, _ := packages.ByName("HTMLParser")
	bud := benchBudgets()
	for _, decay := range []float64{0.5, 0.75, 0.9, 1.0} {
		decay := decay
		b.Run(fmt.Sprintf("p=%.2f", decay), func(b *testing.B) {
			var tests int
			for i := 0; i < b.N; i++ {
				pt := p.Test(interp.Optimized)
				s := chef.NewSession(pt.Program(), chef.Options{
					Strategy:        chef.StrategyCUPACoverage,
					Seed:            1,
					StepLimit:       bud.StepLimit,
					ForkWeightDecay: decay,
				})
				tests = len(s.Run(bud.Time))
			}
			b.ReportMetric(float64(tests), "tests")
		})
	}
}

// BenchmarkAblationSolver toggles the solver's independent-constraint
// slicing and counterexample cache on the raw constraint workload generated
// by exploring simplejson.
func BenchmarkAblationSolver(b *testing.B) {
	p, _ := packages.ByName("simplejson")
	bud := benchBudgets()
	cases := []struct {
		name string
		opts solver.Options
	}{
		{"full", solver.Options{}},
		{"no-slicing", solver.Options{DisableSlicing: true}},
		{"no-cache", solver.Options{DisableCache: true}},
		{"neither", solver.Options{DisableSlicing: true, DisableCache: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var tests int
			var props int64
			for i := 0; i < b.N; i++ {
				pt := p.Test(interp.Optimized)
				s := chef.NewSession(pt.Program(), chef.Options{
					Strategy:      chef.StrategyCUPAPath,
					Seed:          1,
					StepLimit:     bud.StepLimit,
					SolverOptions: c.opts,
				})
				tests = len(s.Run(bud.Time))
				props = s.Engine().Solver().Stats().Propagations
			}
			b.ReportMetric(float64(tests), "tests")
			b.ReportMetric(float64(props), "sat-props")
		})
	}
}

// BenchmarkAblationStrategies compares the full strategy zoo on HTMLParser.
func BenchmarkAblationStrategies(b *testing.B) {
	p, _ := packages.ByName("HTMLParser")
	bud := benchBudgets()
	for _, k := range []chef.StrategyKind{chef.StrategyRandom, chef.StrategyDFS, chef.StrategyBFS, chef.StrategyCUPAPath, chef.StrategyCUPACoverage} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var tests int
			for i := 0; i < b.N; i++ {
				pt := p.Test(interp.Optimized)
				s := chef.NewSession(pt.Program(), chef.Options{Strategy: k, Seed: 1, StepLimit: bud.StepLimit})
				tests = len(s.Run(bud.Time))
			}
			b.ReportMetric(float64(tests), "tests")
		})
	}
}

// --- Component micro-benches -------------------------------------------------

// BenchmarkSolverByteEquations measures the solver on string-comparison
// shaped queries.
func BenchmarkSolverByteEquations(b *testing.B) {
	s := solver.New(solver.Options{DisableCache: true})
	for i := 0; i < b.N; i++ {
		var cs []*symexpr.Expr
		for j := 0; j < 8; j++ {
			v := symexpr.NewVar(symexpr.Var{Buf: "s", Idx: j, W: symexpr.W8})
			cs = append(cs, symexpr.Eq(v, symexpr.Const(uint64('a'+j%26), symexpr.W8)))
		}
		if res, _ := s.CheckQuery(solver.Query{PC: cs}); res != solver.Sat {
			b.Fatal("unexpected unsat")
		}
	}
}

// BenchmarkSolverHashInversion measures the solver inverting the string
// hash, the workload hash-neutralization avoids.
func BenchmarkSolverHashInversion(b *testing.B) {
	s := solver.New(solver.Options{DisableCache: true})
	for i := 0; i < b.N; i++ {
		h := symexpr.Const(2, symexpr.W64)
		for j := 0; j < 2; j++ {
			v := symexpr.ZExt(symexpr.NewVar(symexpr.Var{Buf: "k", Idx: j, W: symexpr.W8}), symexpr.W64)
			h = symexpr.Xor(symexpr.Mul(h, symexpr.Const(1000003, symexpr.W64)), v)
		}
		target := symexpr.And(h, symexpr.Const(7, symexpr.W64))
		cs := []*symexpr.Expr{symexpr.Eq(target, symexpr.Const(uint64(i%8), symexpr.W64))}
		s.CheckQuery(solver.Query{PC: cs})
	}
}

// BenchmarkMiniPyInterp measures raw concrete interpretation speed.
func BenchmarkMiniPyInterp(b *testing.B) {
	prog := minipy.MustCompile(`
total = 0
for i in range(200):
    total += i * 3 % 7
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := lowlevel.NewConcreteMachine(nil, 1<<22)
		m.RunConcrete(func(m *lowlevel.Machine) { minipy.RunModule(prog, m, nil, interp.Optimized) })
	}
}

// BenchmarkLogPC runs one CUPA-path session over argparse at the
// parsers-cupa workload's budget and step limit, and reports the session's
// wall time per log_pc call (ns/logpc, from the chef.logpc counter). The
// per-opcode hook is paid on every interpreted instruction, so this is the
// figure a cheaper log_pc moves.
func BenchmarkLogPC(b *testing.B) {
	p, _ := packages.ByName("argparse")
	prog := p.Test(interp.Optimized).Program()
	var calls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		s := chef.NewSession(prog, chef.Options{
			Strategy: chef.StrategyCUPAPath, Seed: 1, StepLimit: 60_000, Metrics: reg,
		})
		s.Run(600_000)
		calls += reg.Counter(obs.MChefLogPC).Value()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls), "ns/logpc")
	b.ReportMetric(float64(calls)/float64(b.N), "logpc/op")
}

// BenchmarkGuestCall measures one entry call of a package on a VM whose
// module has run: argparse's on MiniPy and JSON's on MiniLua, with the
// packages' default inputs. Every engine run and every replay makes such a
// call, so ns/op and allocs/op are the per-call costs the interpreters pay
// about ten thousand times in a parsers-cupa pass.
func BenchmarkGuestCall(b *testing.B) {
	entry := func(name string) (*packages.Package, *lowlevel.Machine) {
		p, _ := packages.ByName(name)
		return p, lowlevel.NewConcreteMachine(nil, math.MaxInt64)
	}
	b.Run("minipy", func(b *testing.B) {
		p, m := entry("argparse")
		vm, out := minipy.RunModule(minipy.MustCompile(p.Source), m, nil, interp.Optimized)
		if out.Exception != "" {
			b.Fatal(out.Exception)
		}
		var args []minipy.Value
		for _, in := range p.Inputs {
			args = append(args, minipy.SymbolicString(m, in.Name, in.Len, in.Default))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.CallFunction(p.Entry, args)
		}
	})
	b.Run("minilua", func(b *testing.B) {
		p, m := entry("JSON")
		prog, err := minilua.Compile(p.Source)
		if err != nil {
			b.Fatal(err)
		}
		vm, out := minilua.RunModule(prog, m, nil, interp.Optimized)
		if out.Error != "" {
			b.Fatal(out.Error)
		}
		var args []minilua.Value
		for _, in := range p.Inputs {
			args = append(args, minilua.SymbolicString(m, in.Name, in.Len, in.Default))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.CallFunction(p.Entry, args)
		}
	})
}

// BenchmarkGuestRun measures one whole guest run as a replay makes it: a
// concrete machine, a VM started at the entry call from the module image,
// the entry call on the packages' default inputs, and the coverage it
// records; argparse's on MiniPy and JSON's on MiniLua. allocs/op is what
// one run allocates, about ten thousand times in a parsers-cupa pass.
func BenchmarkGuestRun(b *testing.B) {
	for _, c := range []struct{ lang, pkg string }{{"minipy", "argparse"}, {"minilua", "JSON"}} {
		b.Run(c.lang, func(b *testing.B) {
			p, _ := packages.ByName(c.pkg)
			test := p.Test(interp.Vanilla)
			if err := test.Compile(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				test.Replay(nil, 60_000)
			}
		})
	}
}

// BenchmarkCUPASelection measures strategy insert/select throughput.
func BenchmarkCUPASelection(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := cupa.NewPathOptimized(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(&lowlevel.State{DynHLPC: uint64(i % 64), LLPC: lowlevel.LLPC(i % 8), ForkWeight: 1})
		if i%2 == 1 {
			s.Select()
		}
	}
}

// BenchmarkDedicatedEngine measures the dedicated engine on the MAC
// workload.
func BenchmarkDedicatedEngine(b *testing.B) {
	src := packages.MacLearningFlatSource(2)
	prog := minipy.MustCompile(src)
	for i := 0; i < b.N; i++ {
		e := dedicated.New(prog, dedicated.Options{})
		var args []dedicated.Value
		for j := 0; j < 2; j++ {
			args = append(args, dstr(fmt.Sprintf("s%d", j)), dstr(fmt.Sprintf("d%d", j)))
		}
		if err := e.Explore("drive_frames", args); err != nil {
			b.Fatal(err)
		}
	}
}

func dstr(name string) dedicated.Value {
	bts := make([]*symexpr.Expr, 2)
	for i := range bts {
		bts[i] = symexpr.NewVar(symexpr.Var{Buf: name, Idx: i, W: symexpr.W8})
	}
	return dedicated.StrV{B: bts}
}

// BenchmarkAblationPortfolio compares a portfolio over the four interpreter
// builds (the §6.5 extension) against the single fully-optimized build on
// xlrd, at equal total budget.
func BenchmarkAblationPortfolio(b *testing.B) {
	p, _ := packages.ByName("xlrd")
	bud := benchBudgets()
	total := bud.Time * 4
	var single, portfolio int
	for i := 0; i < b.N; i++ {
		s := chef.NewSession(p.Test(interp.Optimized).Program(),
			chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 5, StepLimit: bud.StepLimit})
		single = len(s.Run(total))

		var members []chef.PortfolioMember
		names := interp.OptLevelNames()
		for li, lvl := range interp.OptLevels() {
			members = append(members, chef.PortfolioMember{Name: names[li], Prog: p.Test(lvl).Program()})
		}
		res := chef.RunPortfolio(members,
			chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 5, StepLimit: bud.StepLimit}, 0, total)
		portfolio = len(res.Tests)
	}
	b.ReportMetric(float64(single), "tests-single-build")
	b.ReportMetric(float64(portfolio), "tests-portfolio")
}

// --- Observability overhead ------------------------------------------------

// benchExplore runs one fixed exploration session with the given sinks; the
// workload is identical across the observability sub-benches so their ns/op
// are directly comparable.
func benchExplore(b *testing.B, reg *obs.Registry, tr obs.Tracer) {
	p, _ := packages.ByName("simplejson")
	prog := p.Test(interp.Optimized).Program()
	bud := benchBudgets()
	b.ResetTimer()
	var tests int
	for i := 0; i < b.N; i++ {
		s := chef.NewSession(prog, chef.Options{
			Strategy: chef.StrategyCUPAPath, Seed: 1, StepLimit: bud.StepLimit,
			Metrics: reg, Tracer: tr,
		})
		tests = len(s.Run(bud.Time))
	}
	b.ReportMetric(float64(tests), "tests")
}

// BenchmarkTracingOverhead quantifies the cost of the observability layer on
// a fixed exploration workload: disabled (the nil-check hot path, the cost
// every production run pays), metrics-only (atomic counters + histograms),
// and full JSONL tracing to a discarded writer. The disabled case is the one
// the <5% overhead budget of the design applies to.
func BenchmarkTracingOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchExplore(b, nil, nil)
	})
	b.Run("metrics", func(b *testing.B) {
		benchExplore(b, obs.NewRegistry(), nil)
	})
	b.Run("trace-jsonl", func(b *testing.B) {
		tr := obs.NewJSONL(io.Discard)
		tr.DisableWallClock()
		benchExplore(b, nil, tr)
	})
	b.Run("metrics+trace", func(b *testing.B) {
		tr := obs.NewJSONL(io.Discard)
		tr.DisableWallClock()
		benchExplore(b, obs.NewRegistry(), tr)
	})
}

// benchExploreSpans is benchExplore with a span profiler attached (a fresh
// one per session; profilers are single-goroutine and hold a span stack).
func benchExploreSpans(b *testing.B, mkReg func() *obs.Registry, mkTracer func() obs.Tracer) {
	p, _ := packages.ByName("simplejson")
	prog := p.Test(interp.Optimized).Program()
	bud := benchBudgets()
	b.ResetTimer()
	var tests int
	for i := 0; i < b.N; i++ {
		s := chef.NewSession(prog, chef.Options{
			Strategy: chef.StrategyCUPAPath, Seed: 1, StepLimit: bud.StepLimit,
			Spans: obs.NewSpanProfiler(mkReg(), mkTracer()),
		})
		tests = len(s.Run(bud.Time))
	}
	b.ReportMetric(float64(tests), "tests")
}

// BenchmarkSpanOverhead quantifies the span profiler against the same fixed
// workload as BenchmarkTracingOverhead. The disabled case is the nil-check
// path every unprofiled run pays (it must stay within noise of
// TracingOverhead/disabled); spans+metrics is the production -spans
// configuration (a handful of atomic adds per span close); spans+trace adds
// one JSONL event per span.
func BenchmarkSpanOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchExplore(b, nil, nil)
	})
	b.Run("spans+metrics", func(b *testing.B) {
		benchExploreSpans(b, obs.NewRegistry, func() obs.Tracer { return nil })
	})
	b.Run("spans+trace", func(b *testing.B) {
		benchExploreSpans(b, func() *obs.Registry { return nil }, func() obs.Tracer {
			tr := obs.NewJSONL(io.Discard)
			tr.DisableWallClock()
			return tr
		})
	})
}

// benchQueries builds a deterministic batch of growing path conditions over
// one symbolic byte — the natural query pattern of symbolic execution, where
// each branch appends one conjunct to the previous path condition.
func benchQueries() [][]*symexpr.Expr {
	a := symexpr.NewVar(symexpr.Var{Buf: "a", W: symexpr.W8})
	grow := []*symexpr.Expr{
		symexpr.Ult(a, symexpr.Const(200, symexpr.W8)),
		symexpr.Ult(symexpr.Const(10, symexpr.W8), a),
		symexpr.Ne(a, symexpr.Const(50, symexpr.W8)),
		symexpr.Ne(a, symexpr.Const(77, symexpr.W8)),
		symexpr.Ule(a, symexpr.Const(180, symexpr.W8)),
	}
	var out [][]*symexpr.Expr
	for i := 1; i <= len(grow); i++ {
		out = append(out, grow[:i])
	}
	return out
}

// BenchmarkCheckCached measures one solver query with and without the
// cache: nocache re-solves each time (the price of a miss), exact serves
// repeats from the in-memory cache (the price of a hit). The
// hit/miss ratio here is what the counterexample cache buys the engine on
// every branch of an exploration.
func BenchmarkCheckCached(b *testing.B) {
	queries := benchQueries()
	run := func(b *testing.B, opts solver.Options) {
		s := solver.New(opts)
		for _, q := range queries { // warm every layer
			s.CheckQuery(solver.Query{PC: q})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, _ := s.CheckQuery(solver.Query{PC: queries[i%len(queries)]}); res != solver.Sat {
				b.Fatalf("unexpected verdict %v", res)
			}
		}
	}
	b.Run("nocache", func(b *testing.B) { run(b, solver.Options{DisableCache: true}) })
	b.Run("exact", func(b *testing.B) { run(b, solver.Options{}) })
}

// BenchmarkInterning measures hash-consed construction of a fixed expression
// tree. After the first build every constructor call is an interner hit, so
// this is the steady-state cost the engine pays per emitted expression node
// (a hit allocates nothing, so allocs/op tends to 0 as b.N grows) — and the
// pointer-equality dividend is visible in the "equal" sub-bench,
// which compares two structurally equal trees in O(1).
func BenchmarkInterning(b *testing.B) {
	build := func(salt uint64) *symexpr.Expr {
		a := symexpr.NewVar(symexpr.Var{Buf: "a", W: symexpr.W8})
		x := symexpr.Add(a, symexpr.Const(salt&0xff, symexpr.W8))
		for i := 0; i < 10; i++ {
			x = symexpr.Xor(symexpr.Mul(x, symexpr.Const(uint64(i)|1, symexpr.W8)), a)
		}
		return symexpr.Ult(x, symexpr.Const(200, symexpr.W8))
	}
	b.Run("construct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if build(7) == nil {
				b.Fatal("nil expr")
			}
		}
	})
	b.Run("equal", func(b *testing.B) {
		x, y := build(7), build(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !symexpr.Equal(x, y) {
				b.Fatal("interned trees unequal")
			}
		}
	})
}
