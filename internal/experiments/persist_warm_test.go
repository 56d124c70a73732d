package experiments

import (
	"path/filepath"
	"testing"

	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
)

// Warm-vs-cold suite: an experiment rerun against the persistent
// counterexample cache written by a previous run must render byte-identical
// output. The persistent layer replays the recorded verdict, model and
// virtual solve cost, so the exploration — and therefore every number in the
// tables and figures — cannot depend on whether the store was warm.

// runFig8WithStore renders Figure 8 with a persistent store at path, and
// returns the rendered bytes plus the persistent-cache hits of the pass.
func runFig8WithStore(t *testing.T, path string) (string, int64) {
	t.Helper()
	store, err := solver.OpenPersistentStore(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if cerr := store.Corruption(); cerr != nil {
		t.Fatalf("store corrupt: %v", cerr)
	}
	b := goldenBudgets()
	b.Persist = store.View()
	b.Metrics = obs.NewRegistry()
	out := RenderFig8(Fig8(b))
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return out, b.Metrics.Counter(obs.MSolverCacheHitsPersist).Value()
}

// TestGoldenFig8WarmPersist runs Figure 8 cold (writing a fresh cache file),
// then warm from that file, and requires (a) the warm pass actually hit the
// persistent layer, (b) warm output is byte-identical to cold output, and
// (c) both match the checked-in golden bytes.
func TestGoldenFig8WarmPersist(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	path := filepath.Join(t.TempDir(), "cxc.bin")
	cold, coldHits := runFig8WithStore(t, path)
	warm, warmHits := runFig8WithStore(t, path)
	if coldHits != 0 {
		t.Fatalf("cold pass hit the empty persistent store %d times", coldHits)
	}
	if warmHits == 0 {
		t.Fatal("warm pass recorded no persistent hits")
	}
	if cold != warm {
		t.Fatalf("warm rerun diverged from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	checkGolden(t, "fig8", warm)
}

// TestWarmParallelMatchesColdSerial crosses the two axes: a cold serial run
// writes the store, then a warm 8-worker run must reproduce the exact
// aggregates. This is the strongest reproducibility claim the harness makes —
// scheduling and store temperature both vary, the numbers do not.
func TestWarmParallelMatchesColdSerial(t *testing.T) {
	p, _ := packages.ByName("simplejson")
	cfg := FourConfigurations(true)[3]
	path := filepath.Join(t.TempDir(), "cxc.bin")

	run := func(workers int) (Aggregated, Aggregated, RunResult, int64) {
		store, err := solver.OpenPersistentStore(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		b := quickParallelBudgets(workers)
		b.Persist = store.View()
		b.Metrics = obs.NewRegistry()
		ts, cs, last := runRepeated(p, cfg, b)
		if err := store.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return ts, cs, last, b.Metrics.Counter(obs.MSolverCacheHitsPersist).Value()
	}

	st, sc, slast, _ := run(1)
	pt, pc, plast, warmHits := run(8)
	if warmHits == 0 {
		t.Fatal("warm parallel pass recorded no persistent hits")
	}
	if st != pt || sc != pc {
		t.Fatalf("aggregates diverged:\n cold serial   tests=%+v cov=%+v\n warm parallel tests=%+v cov=%+v", st, sc, pt, pc)
	}
	if slast.HLTests != plast.HLTests || slast.LLPaths != plast.LLPaths ||
		slast.Coverage != plast.Coverage || slast.VirtTime != plast.VirtTime {
		t.Fatalf("last repetition diverged:\n cold serial   %+v\n warm parallel %+v", slast, plast)
	}
}

// TestFig12UsesSolverOptions pins that Figure 12's CHEF sessions take their
// solver options from the budgets like every other experiment: with a
// persistent store attached, the sessions must append their solves to it.
func TestFig12UsesSolverOptions(t *testing.T) {
	store, err := solver.OpenPersistentStore(filepath.Join(t.TempDir(), "cxc.bin"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	b := quickBudgets()
	b.Time = 100_000
	b.Persist = store.View()
	Fig12(1, b)
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if store.Appended() == 0 {
		t.Fatal("fig12 sessions appended nothing to the persistent store")
	}
}
