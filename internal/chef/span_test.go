package chef

import (
	"testing"

	"chef/internal/obs"
)

// TestSpannedSessionMatchesPlain is the span profiler's half of the
// determinism contract: attaching a profiler must not change a single engine
// decision, because spans only read the virtual clock — they never advance
// it. The per-layer aggregates must also reconcile exactly with the engine's
// own accounting.
func TestSpannedSessionMatchesPlain(t *testing.T) {
	const budget = 400_000
	run := func(spans *obs.SpanProfiler) ([]TestCase, Summary) {
		s := NewSession(validateEmailProg(5), Options{
			Strategy: StrategyCUPAPath, Seed: 11, Spans: spans, Name: "span-det",
		})
		return s.Run(budget), s.Summary()
	}
	plainTests, plainSum := run(nil)
	reg := obs.NewRegistry()
	var collect obs.Collect
	spannedTests, spannedSum := run(obs.NewSpanProfiler(reg, &collect))

	if plainSum != spannedSum {
		t.Errorf("summary diverged:\n plain   %+v\n spanned %+v", plainSum, spannedSum)
	}
	if len(plainTests) != len(spannedTests) {
		t.Fatalf("test count diverged: %d vs %d", len(plainTests), len(spannedTests))
	}
	for i := range plainTests {
		if plainTests[i].Result != spannedTests[i].Result || plainTests[i].HLSig != spannedTests[i].HLSig {
			t.Errorf("test %d diverged: %q/%x vs %q/%x", i,
				plainTests[i].Result, plainTests[i].HLSig, spannedTests[i].Result, spannedTests[i].HLSig)
		}
	}

	aggs := map[string]obs.SpanAggregate{}
	for _, a := range reg.SpanAggregates() {
		aggs[a.Layer] = a
	}
	session := aggs[obs.SpanChefSession]
	if session.Count != 1 {
		t.Fatalf("chef.session spans = %d, want 1", session.Count)
	}
	// The session span's virtual total is the engine clock, all of it spent
	// inside engine.run spans (the session loop itself is virtually free).
	if session.VirtTotal != spannedSum.VirtTime {
		t.Errorf("session span total %d != summary virt time %d", session.VirtTotal, spannedSum.VirtTime)
	}
	if session.VirtSelf != 0 {
		t.Errorf("session span self = %d, want 0", session.VirtSelf)
	}
	runs := aggs[obs.SpanEngineRun]
	if runs.VirtTotal != session.VirtTotal {
		t.Errorf("engine.run total %d != session total %d", runs.VirtTotal, session.VirtTotal)
	}
	// Self + direct-child totals partition each level.
	checks := aggs[obs.SpanSolverCheck]
	if runs.VirtSelf+checks.VirtTotal != runs.VirtTotal {
		t.Errorf("engine.run self %d + solver.check total %d != engine.run total %d",
			runs.VirtSelf, checks.VirtTotal, runs.VirtTotal)
	}
	blast := aggs[obs.SpanSolverBlast]
	cacheL := aggs[obs.SpanCacheLookup]
	if checks.VirtSelf+blast.VirtTotal+cacheL.VirtTotal != checks.VirtTotal {
		t.Errorf("solver.check self %d + children %d+%d != total %d",
			checks.VirtSelf, blast.VirtTotal, cacheL.VirtTotal, checks.VirtTotal)
	}
	// The CDCL search is the blast stage's only child.
	search := aggs[obs.SpanSolverSearch]
	if search.Count == 0 || blast.VirtSelf+search.VirtTotal != blast.VirtTotal {
		t.Errorf("solver.blast self %d + solver.search total %d != total %d (%d searches)",
			blast.VirtSelf, search.VirtTotal, blast.VirtTotal, search.Count)
	}
	// Span events and counters agree.
	spans := session.Count + runs.Count + checks.Count + blast.Count + search.Count + cacheL.Count
	if got := int64(collect.CountKind(obs.KindSpan)); got != spans {
		t.Errorf("span events = %d, counters sum = %d", got, spans)
	}
}
