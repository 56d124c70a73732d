package chef

import (
	"fmt"
	"math/rand"
	"testing"

	"chef/internal/faults"
)

func mustChaosPlan(t testing.TB, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

// randomPlanSpec draws a random-but-valid fault plan: a seed plus 1-3 rules
// over the solver.unknown site with assorted triggers.
func randomPlanSpec(r *rand.Rand) string {
	spec := fmt.Sprintf("seed=%d", r.Int63n(1_000_000))
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		switch r.Intn(3) {
		case 0:
			spec += fmt.Sprintf(";solver.unknown:p=%.2f", 0.05+0.85*r.Float64())
		case 1:
			spec += fmt.Sprintf(";solver.unknown:n=%d", 1+r.Intn(20))
		default:
			spec += fmt.Sprintf(";solver.unknown:every=%d", 1+r.Intn(8))
		}
	}
	return spec
}

var chaosStrategies = []StrategyKind{
	StrategyRandom, StrategyCUPAPath, StrategyCUPACoverage, StrategyDFS, StrategyBFS,
}

// Chaos property suite: whatever fault plan is active, a session must never
// panic, must terminate within its budget, and must keep its accounting
// invariants — one test per distilled high-level path, Unknown verdicts
// fully split between re-queues and abandonments, and monotone progress
// series.
func TestChaosFaultPlansKeepSessionInvariants(t *testing.T) {
	plans := 1000
	if testing.Short() {
		plans = 150
	}
	r := rand.New(rand.NewSource(20260806))
	faulted := 0
	for i := 0; i < plans; i++ {
		spec := randomPlanSpec(r)
		s := NewSession(validateEmailProg(4+i%3), Options{
			Strategy: chaosStrategies[i%len(chaosStrategies)],
			Seed:     int64(i + 1),
			Faults:   mustChaosPlan(t, spec),
			Name:     fmt.Sprintf("chaos-%d", i),
		})
		tests := s.Run(100_000)
		st := s.Engine().Stats()

		if st.UnknownStates != st.RequeuedStates+st.AbandonedStates {
			t.Fatalf("plan %q: accounting broken: %+v", spec, st)
		}
		sum := s.Summary()
		if len(tests) != sum.HLPaths {
			t.Fatalf("plan %q: %d tests for %d HL paths", spec, len(tests), sum.HLPaths)
		}
		series := s.Series()
		for j := 1; j < len(series); j++ {
			if series[j].VirtTime < series[j-1].VirtTime ||
				series[j].LLPaths < series[j-1].LLPaths ||
				series[j].HLPaths < series[j-1].HLPaths {
				t.Fatalf("plan %q: series not monotone at %d", spec, j)
			}
		}
		if s.faults.Injected() > 0 {
			faulted++
		}
		if sum.RequeuedStates != st.RequeuedStates || sum.AbandonedStates != st.AbandonedStates ||
			sum.FaultsInjected != s.faults.Injected() {
			t.Fatalf("plan %q: summary out of sync with stats: %+v vs %+v", spec, sum, st)
		}
	}
	if faulted == 0 {
		t.Fatal("chaos generator too tame: no session had a fault injected")
	}
	t.Logf("%d plans: %d with injected solver faults", plans, faulted)
}

// The acceptance property from the issue: a fault plan forcing a sizable
// fraction of solver Unknowns must still reach 100%% of the clean run's
// high-level paths once every run is drained — re-queued states retry, and
// abandoned signatures re-register on later forks.
func TestFaultedRunRecoversAllPaths(t *testing.T) {
	hlSigs := func(plan *faults.Plan) (map[uint64]bool, *Session) {
		s := NewSession(validateEmailProg(6), Options{
			Strategy: StrategyCUPAPath,
			Seed:     7,
			Faults:   plan,
		})
		sigs := map[uint64]bool{}
		for _, tc := range s.Run(1 << 22) {
			sigs[tc.HLSig] = true
		}
		return sigs, s
	}
	clean, _ := hlSigs(nil)
	if len(clean) == 0 {
		t.Fatal("clean run found no paths")
	}
	faultedSigs, s := hlSigs(mustChaosPlan(t, "seed=9;solver.unknown:p=0.25"))

	st := s.Engine().Stats()
	if st.UnknownStates == 0 {
		t.Fatal("plan injected no Unknowns")
	}
	queries := st.UnknownStates + st.UnsatStates + st.Forks // every solved fork attempt
	if frac := float64(st.UnknownStates) / float64(queries); frac < 0.05 {
		t.Fatalf("injected Unknown fraction %.3f below the 5%% the acceptance demands", frac)
	}
	for sig := range clean {
		if !faultedSigs[sig] {
			t.Fatalf("faulted run lost high-level path %x (%d/%d recovered)",
				sig, len(faultedSigs), len(clean))
		}
	}
	if len(faultedSigs) != len(clean) {
		t.Fatalf("faulted run found %d paths, clean %d", len(faultedSigs), len(clean))
	}
}

// Per-scope fault streams keep the parallel-determinism contract: a
// portfolio under an active plan produces identical merged results at any
// worker count.
func TestPortfolioDeterministicUnderFaults(t *testing.T) {
	members := []PortfolioMember{
		{Name: "m0", Prog: validateEmailProg(4)},
		{Name: "m1", Prog: validateEmailProg(5)},
		{Name: "m2", Prog: validateEmailProg(6)},
		{Name: "m3", Prog: validateEmailProg(4)},
	}
	run := func(parallel int) PortfolioResult {
		return RunPortfolio(members, Options{
			Strategy: StrategyCUPAPath,
			Seed:     11,
			Faults:   mustChaosPlan(t, "seed=5;solver.unknown:p=0.3"),
		}, parallel, 1<<22)
	}
	serial, wide := run(1), run(4)
	if len(serial.Tests) != len(wide.Tests) {
		t.Fatalf("test counts diverge: serial %d, parallel %d", len(serial.Tests), len(wide.Tests))
	}
	for i := range serial.Tests {
		if serial.Tests[i].HLSig != wide.Tests[i].HLSig {
			t.Fatalf("test %d diverges: serial sig %x, parallel sig %x",
				i, serial.Tests[i].HLSig, wide.Tests[i].HLSig)
		}
	}
	for i := range serial.PerBuild {
		if serial.PerBuild[i] != wide.PerBuild[i] || serial.NewPerBuild[i] != wide.NewPerBuild[i] {
			t.Fatalf("member %d counts diverge: serial %d/%d, parallel %d/%d", i,
				serial.PerBuild[i], serial.NewPerBuild[i], wide.PerBuild[i], wide.NewPerBuild[i])
		}
	}
	// The plan actually fired, the same number of times in both runs.
	if serial.Aggregate.FaultsInjected == 0 {
		t.Fatal("plan injected no faults; the test is vacuous")
	}
	if serial.Aggregate != wide.Aggregate {
		t.Fatalf("aggregates diverge:\nserial   %+v\nparallel %+v", serial.Aggregate, wide.Aggregate)
	}
}
