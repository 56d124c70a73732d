package experiments

import (
	"testing"

	"chef/internal/obs"
	"chef/internal/packages"
)

// TestSpannedRunMatchesUnspanned proves the profiler's determinism contract
// on both interpreters: a fully spanned run (registry + aggregates) produces
// the same tests, paths, coverage and virtual time as an uninstrumented one.
func TestSpannedRunMatchesUnspanned(t *testing.T) {
	for _, name := range []string{"simplejson", "JSON"} {
		t.Run(name, func(t *testing.T) {
			p, _ := packages.ByName(name)
			cfg := FourConfigurations(true)[3]
			b := quickParallelBudgets(1)
			plain := runOne(p, cfg, b, b.Seed)

			sb := quickParallelBudgets(1)
			sb.Spans = true
			sb.Metrics = obs.NewRegistry()
			spanned := runOne(p, cfg, sb, sb.Seed)

			if plain.HLTests != spanned.HLTests || plain.LLPaths != spanned.LLPaths ||
				plain.Coverage != spanned.Coverage || plain.VirtTime != spanned.VirtTime {
				t.Fatalf("spanned run diverged:\n plain   tests=%d ll=%d cov=%v virt=%d\n spanned tests=%d ll=%d cov=%v virt=%d",
					plain.HLTests, plain.LLPaths, plain.Coverage, plain.VirtTime,
					spanned.HLTests, spanned.LLPaths, spanned.Coverage, spanned.VirtTime)
			}
			if plain.Solver != spanned.Solver {
				t.Fatalf("solver stats diverged:\n plain   %+v\n spanned %+v", plain.Solver, spanned.Solver)
			}

			aggs := map[string]obs.SpanAggregate{}
			for _, a := range sb.Metrics.SpanAggregates() {
				aggs[a.Layer] = a
			}
			if got := aggs[obs.SpanChefSession].VirtTotal; got != spanned.VirtTime {
				t.Errorf("session span total %d != session virt time %d", got, spanned.VirtTime)
			}
			if got := aggs[obs.SpanEngineRun].VirtTotal; got != spanned.VirtTime {
				t.Errorf("engine.run span total %d != session virt time %d", got, spanned.VirtTime)
			}
		})
	}
}

// TestSpannedParallelDeterminism runs the same spanned grid point serially
// and on 8 workers: the per-layer virtual aggregates (count, total, self)
// must be identical, because each cell profiles into a private child
// registry and counter merging is commutative. Wall fields are observational
// and excluded.
func TestSpannedParallelDeterminism(t *testing.T) {
	p, _ := packages.ByName("simplejson")
	cfg := FourConfigurations(true)[3]
	run := func(workers int) (Aggregated, Aggregated, []obs.SpanAggregate) {
		b := quickParallelBudgets(workers)
		b.Spans = true
		b.Metrics = obs.NewRegistry()
		tests, cov, _ := runRepeated(p, cfg, b)
		return tests, cov, b.Metrics.SpanAggregates()
	}
	st, sc, serial := run(1)
	pt, pc, parallel := run(8)
	if st != pt || sc != pc {
		t.Fatalf("aggregates diverged: serial %+v/%+v, parallel %+v/%+v", st, sc, pt, pc)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("span layer sets diverged: %d vs %d layers", len(serial), len(parallel))
	}
	for i := range serial {
		s, q := serial[i], parallel[i]
		if s.Layer != q.Layer || s.Count != q.Count || s.VirtTotal != q.VirtTotal || s.VirtSelf != q.VirtSelf {
			t.Errorf("layer %s: serial count=%d total=%d self=%d, parallel (%s) count=%d total=%d self=%d",
				s.Layer, s.Count, s.VirtTotal, s.VirtSelf, q.Layer, q.Count, q.VirtTotal, q.VirtSelf)
		}
	}
}
