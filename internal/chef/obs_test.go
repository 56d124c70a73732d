package chef

import (
	"bytes"
	"context"
	"testing"

	"chef/internal/faults"
	"chef/internal/lowlevel"
	"chef/internal/obs"
	"chef/internal/solver"
	"chef/internal/symexpr"
)

// TestTracedRunMatchesUntraced is the determinism contract of the
// observability layer: attaching a tracer and a metrics registry must not
// change a single engine decision, so the generated tests and the session
// summary are identical to an untraced run with the same seed.
func TestTracedRunMatchesUntraced(t *testing.T) {
	const budget = 400_000
	run := func(tr obs.Tracer, reg *obs.Registry) ([]TestCase, Summary) {
		s := NewSession(branchesProg(10), Options{
			Strategy: StrategyCUPAPath, Seed: 11, Tracer: tr, Metrics: reg, Name: "det",
		})
		return s.Run(budget), s.Summary()
	}
	plainTests, plainSum := run(nil, nil)
	var collect obs.Collect
	reg := obs.NewRegistry()
	tracedTests, tracedSum := run(&collect, reg)

	if plainSum != tracedSum {
		t.Errorf("summary diverged:\n plain  %+v\n traced %+v", plainSum, tracedSum)
	}
	if len(plainTests) != len(tracedTests) {
		t.Fatalf("test count diverged: %d vs %d", len(plainTests), len(tracedTests))
	}
	for i := range plainTests {
		if plainTests[i].Result != tracedTests[i].Result || plainTests[i].HLSig != tracedTests[i].HLSig {
			t.Errorf("test %d diverged: %q/%x vs %q/%x", i,
				plainTests[i].Result, plainTests[i].HLSig, tracedTests[i].Result, tracedTests[i].HLSig)
		}
		for v, val := range plainTests[i].Input {
			if tracedTests[i].Input[v] != val {
				t.Errorf("test %d input %v diverged: %d vs %d", i, v, val, tracedTests[i].Input[v])
			}
		}
	}

	// Events and metrics must agree with the engine's own counters.
	if got := collect.CountKind(obs.KindTestCase); got != len(tracedTests) {
		t.Errorf("testcase events = %d, want %d", got, len(tracedTests))
	}
	if got := collect.CountKind(obs.KindSessionStart); got != 1 {
		t.Errorf("session-start events = %d, want 1", got)
	}
	if got := collect.CountKind(obs.KindSessionEnd); got != 1 {
		t.Errorf("session-end events = %d, want 1", got)
	}
	if got, want := int64(collect.CountKind(obs.KindLLFork)), tracedSum.Forks; got != want {
		t.Errorf("ll-fork events = %d, engine forks = %d", got, want)
	}
	if got, want := int64(collect.CountKind(obs.KindRunEnd)), tracedSum.Runs; got != want {
		t.Errorf("run-end events = %d, engine runs = %d", got, want)
	}
	if got, want := reg.Counter(obs.MForks).Value(), tracedSum.Forks; got != want {
		t.Errorf("metric %s = %d, engine forks = %d", obs.MForks, got, want)
	}
	if got, want := reg.Counter(obs.MRuns).Value(), tracedSum.Runs; got != want {
		t.Errorf("metric %s = %d, engine runs = %d", obs.MRuns, got, want)
	}
	if got, want := reg.Counter(obs.MChefTests).Value(), int64(len(tracedTests)); got != want {
		t.Errorf("metric %s = %d, want %d", obs.MChefTests, got, want)
	}
	// Per-LLPC fork counters must sum back to the total.
	var vecTotal int64
	for _, n := range reg.CounterVec(obs.MForksByLLPC).Snapshot() {
		vecTotal += n
	}
	if vecTotal != tracedSum.Forks {
		t.Errorf("per-LLPC fork counters sum to %d, engine forks = %d", vecTotal, tracedSum.Forks)
	}
	// Every event carries the session label.
	for _, ev := range collect.Events() {
		if ev.Session != "det" {
			t.Fatalf("event %+v missing session label", ev)
		}
	}
}

// TestSolverQueryEventsMatchStats cross-checks solver instrumentation: query
// events equal the solver's query counter and cache-hit flags match the
// cache counters.
func TestSolverQueryEventsMatchStats(t *testing.T) {
	var collect obs.Collect
	reg := obs.NewRegistry()
	s := NewSession(validateEmailProg(4), Options{
		Strategy: StrategyCUPAPath, Seed: 3, Tracer: &collect, Metrics: reg,
	})
	s.Run(300_000)
	st := s.Engine().Solver().Stats()
	if got := int64(collect.CountKind(obs.KindSolverQuery)); got != st.Queries {
		t.Errorf("solver-query events = %d, solver queries = %d", got, st.Queries)
	}
	var hits int64
	for _, ev := range collect.Events() {
		if ev.Kind == obs.KindSolverQuery && ev.CacheHit {
			hits++
		}
	}
	if hits != st.CacheHits {
		t.Errorf("cache-hit events = %d, solver cache hits = %d", hits, st.CacheHits)
	}
	if got := reg.Counter(obs.MSolverQueries).Value(); got != st.Queries {
		t.Errorf("metric %s = %d, want %d", obs.MSolverQueries, got, st.Queries)
	}
	if got := reg.Histogram(obs.MSolverQueryVirt).Count(); got != st.Queries {
		t.Errorf("virt latency histogram count = %d, want %d", got, st.Queries)
	}
	if got := reg.Histogram(obs.MSolverQueryWall).Count(); got != st.Queries {
		t.Errorf("wall latency histogram count = %d, want %d", got, st.Queries)
	}
}

// TestPortfolioAggregateMatchesMembers checks the Summary.Add-based
// portfolio aggregation (the satellite replacing ad-hoc field sums) and the
// member-order metric merge.
func TestPortfolioAggregateMatchesMembers(t *testing.T) {
	members := []PortfolioMember{
		{Name: "m0", Prog: validateEmailProg(3)},
		{Name: "m1", Prog: branchesProg(10)},
	}
	reg := obs.NewRegistry()
	res := RunPortfolio(members, Options{Strategy: StrategyCUPAPath, Seed: 9, Metrics: reg}, 2, 400_000)
	if res.Aggregate.Runs <= 0 || res.Aggregate.VirtTime <= 0 {
		t.Errorf("portfolio aggregate empty: %+v", res.Aggregate)
	}
	if got := reg.Counter(obs.MRuns).Value(); got != res.Aggregate.Runs {
		t.Errorf("merged metric runs = %d, aggregate = %d", got, res.Aggregate.Runs)
	}
	if got := reg.Counter(obs.MForks).Value(); got != res.Aggregate.Forks {
		t.Errorf("merged metric forks = %d, aggregate = %d", got, res.Aggregate.Forks)
	}
	if len(res.Tests) == 0 {
		t.Error("portfolio found no tests")
	}
}

// TestPortfolioTraceSameAcrossWorkers: each member traces into its own
// segment and the segments are committed in member order, so a traced
// portfolio writes the same JSONL at every worker count, byte for byte once
// DisableWallClock keeps the measured wall durations out.
func TestPortfolioTraceSameAcrossWorkers(t *testing.T) {
	members := []PortfolioMember{
		{Name: "m0", Prog: branchesProg(10)},
		{Name: "m1", Prog: validateEmailProg(6)},
		{Name: "m2", Prog: branchesProg(8)},
		{Name: "m3", Prog: validateEmailProg(5)},
	}
	run := func(workers int) []byte {
		var out bytes.Buffer
		tr := obs.NewJSONL(&out)
		tr.DisableWallClock()
		reg := obs.NewRegistry()
		RunPortfolio(members, Options{
			Strategy: StrategyCUPAPath, Seed: 9, Metrics: reg, Tracer: tr,
			Spans: obs.NewSpanProfiler(reg, tr),
		}, workers, 1_600_000)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	serial, wide := run(1), run(4)
	if bytes.Equal(serial, wide) {
		return
	}
	a, b := bytes.Split(serial, []byte("\n")), bytes.Split(wide, []byte("\n"))
	for i := 0; i < len(a) && i < len(b); i++ {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("line %d differs:\nworkers=1: %s\nworkers=4: %s", i+1, a[i], b[i])
		}
	}
	t.Fatalf("line counts differ: workers=1 %d, workers=4 %d", len(a), len(b))
}

// branchesProg branches on each of n input bytes independently, so its
// 2^n paths outlast small budgets and their sliced feasibility queries
// repeat across paths, reaching the solver's exact cache.
func branchesProg(n int) TestProgram {
	return func(ctx *Ctx) {
		in := ctx.GetString("in", n, "")
		for i := 0; i < n; i++ {
			ctx.LogPC(HLPC(100+i), 1)
			if ctx.M.Branch(lowlevel.LLPC(1000+i), lowlevel.EqV(in[i], lowlevel.ConcreteVal('a', symexpr.W8))) {
				ctx.LogPC(HLPC(200+i), 2)
			}
		}
		ctx.SetResult("ok")
	}
}

// published is what a finished run's registry must hold: each published
// counter and the pending-states gauge, taken from the snapshots they are
// published from, plus the solver snapshots whose verdicts must add up.
type published struct {
	counters map[string]int64
	pending  int64 // -1 when the run exposes no queue length
	solvers  []solver.Stats
}

// sessionCounts maps the engine, solver and session counters to the
// snapshot fields they are published from.
func sessionCounts(e lowlevel.Stats, sol solver.Stats, tests, hlPaths int) map[string]int64 {
	return map[string]int64{
		obs.MRuns:                   e.Runs,
		obs.MStatesCompleted:        e.Runs,
		obs.MHangs:                  e.Hangs,
		obs.MLLPaths:                e.LLPaths,
		obs.MForks:                  e.Forks,
		obs.MDupStates:              e.DupStates,
		obs.MUnsatStates:            e.UnsatStates,
		obs.MUnknownStates:          e.UnknownStates,
		obs.MStatesRequeued:         e.RequeuedStates,
		obs.MStatesAbandoned:        e.AbandonedStates,
		obs.MDivergences:            e.Divergences,
		obs.MSolverQueries:          sol.Queries,
		obs.MSolverSat:              sol.SatQueries,
		obs.MSolverUnsat:            sol.UnsatQueries,
		obs.MSolverUnknown:          sol.Unknowns,
		obs.MSolverCacheHits:        sol.CacheHits,
		obs.MSolverCacheMisses:      sol.CacheMisses,
		obs.MSolverCacheHitsExact:   sol.CacheHitsExact,
		obs.MSolverCacheHitsPersist: sol.CacheHitsPersist,
		obs.MChefTests:              int64(tests),
		obs.MChefHLPaths:            int64(hlPaths),
	}
}

// TestPublishedCountersMatchSnapshots pins the one-owner rule for counts:
// the counters a run publishes when it ends equal the Stats, Summary and
// Pending values they come from, for every way a run can end, and every
// solver's verdicts add up to its queries.
func TestPublishedCountersMatchSnapshots(t *testing.T) {
	const budget = 10_000
	plain := func(reg *obs.Registry, ctx context.Context, prog TestProgram, opts Options) published {
		opts.Metrics = reg
		s := NewSession(prog, opts)
		tests := s.RunContext(ctx, budget)
		sol := s.Engine().Solver().Stats()
		return published{
			counters: sessionCounts(s.Engine().Stats(), sol, len(tests), s.Summary().HLPaths),
			pending:  int64(s.Engine().Pending()),
			solvers:  []solver.Stats{sol},
		}
	}
	sharded := func(reg *obs.Registry, workers int, plan *faults.Plan) published {
		ss := NewShardedSession(branchesProg(10), Options{
			Strategy: StrategyCUPAPath, Seed: 11, Metrics: reg, Faults: plan,
		}, workers)
		ss.Run(budget)
		var p published
		var cellTests, cellPaths int
		for _, c := range ss.cells {
			cellTests += len(c.sess.tests)
			cellPaths += len(c.sess.hlPaths)
			p.pending += int64(c.sess.eng.Pending())
			p.solvers = append(p.solvers, c.sess.eng.Solver().Stats())
		}
		p.counters = sessionCounts(ss.Stats(), ss.SolverStats(), cellTests, cellPaths)
		p.counters[obs.MChefTestsMerged] = int64(len(ss.tests))
		return p
	}
	cupa := Options{Strategy: StrategyCUPAPath, Seed: 11}
	cases := []struct {
		name string
		run  func(t *testing.T, reg *obs.Registry) published
	}{
		{"plain", func(t *testing.T, reg *obs.Registry) published {
			return plain(reg, context.Background(), branchesProg(10), cupa)
		}},
		{"sharded-1", func(t *testing.T, reg *obs.Registry) published { return sharded(reg, 1, nil) }},
		{"sharded-2", func(t *testing.T, reg *obs.Registry) published { return sharded(reg, 2, nil) }},
		{"sharded-faulted", func(t *testing.T, reg *obs.Registry) published {
			p := sharded(reg, 2, mustChaosPlan(t, "seed=7;solver.unknown:p=0.5"))
			if p.counters[obs.MStatesRequeued] == 0 {
				t.Fatal("fault plan requeued no state")
			}
			return p
		}},
		{"portfolio", func(t *testing.T, reg *obs.Registry) published {
			res := RunPortfolio([]PortfolioMember{
				{Name: "m0", Prog: validateEmailProg(3)},
				{Name: "m1", Prog: branchesProg(10)},
			}, Options{Strategy: StrategyCUPAPath, Seed: 9, Metrics: reg}, 2, budget)
			a := res.Aggregate
			return published{pending: -1, counters: map[string]int64{
				obs.MRuns:            a.Runs,
				obs.MStatesCompleted: a.Runs,
				obs.MHangs:           a.Hangs,
				obs.MLLPaths:         a.LLPaths,
				obs.MForks:           a.Forks,
				obs.MUnsatStates:     a.UnsatStates,
				obs.MDivergences:     a.Divergences,
				obs.MStatesRequeued:  a.RequeuedStates,
				obs.MStatesAbandoned: a.AbandonedStates,
				obs.MChefTests:       int64(a.HLTests),
				obs.MChefHLPaths:     int64(a.HLPaths),
			}}
		}},
		{"cancelled", func(t *testing.T, reg *obs.Registry) published {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runs := 0
			inner := branchesProg(10)
			p := plain(reg, ctx, func(c *Ctx) {
				if runs++; runs == 3 {
					cancel()
				}
				inner(c)
			}, cupa)
			if p.counters[obs.MRuns] != 3 {
				t.Fatalf("cancelled at run 3, the session made %d runs", p.counters[obs.MRuns])
			}
			return p
		}},
		{"solver-unknown", func(t *testing.T, reg *obs.Registry) published {
			opts := cupa
			opts.Faults = mustChaosPlan(t, "seed=7;solver.unknown:p=0.5")
			p := plain(reg, context.Background(), branchesProg(10), opts)
			if p.counters[obs.MStatesRequeued] == 0 {
				t.Fatal("fault plan requeued no state")
			}
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			want := tc.run(t, reg)
			snap := reg.Snapshot()
			for name, v := range want.counters {
				if got, ok := snap.Counters[name]; !ok || got != v {
					t.Errorf("%s = %d (present %v), snapshot says %d", name, got, ok, v)
				}
			}
			if want.pending >= 0 {
				if got, ok := snap.Gauges[obs.MStatesPending]; !ok || got != want.pending {
					t.Errorf("%s = %d (present %v), Pending says %d", obs.MStatesPending, got, ok, want.pending)
				}
			}
			for i, st := range want.solvers {
				if st.Queries != st.SatQueries+st.UnsatQueries+st.Unknowns {
					t.Errorf("solver %d: queries %d != sat %d + unsat %d + unknown %d",
						i, st.Queries, st.SatQueries, st.UnsatQueries, st.Unknowns)
				}
			}
			c := snap.Counters
			if c[obs.MSolverQueries] != c[obs.MSolverSat]+c[obs.MSolverUnsat]+c[obs.MSolverUnknown] {
				t.Errorf("published queries %d != sat %d + unsat %d + unknown %d", c[obs.MSolverQueries],
					c[obs.MSolverSat], c[obs.MSolverUnsat], c[obs.MSolverUnknown])
			}
		})
	}
}
