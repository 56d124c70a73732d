package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
)

// TestGridTraceSameAcrossWorkers: every grid session traces into its own
// segment and the cells commit in grid order, so a traced grid writes the
// same JSONL, byte for byte, at every worker count.
func TestGridTraceSameAcrossWorkers(t *testing.T) {
	cfg := FourConfigurations(true)[3]
	run := func(workers int) []byte {
		var out bytes.Buffer
		tr := obs.NewJSONL(&out)
		tr.DisableWallClock()
		b := quickParallelBudgets(workers)
		b.Time = 150_000
		b.Tracer, b.Metrics, b.Spans = tr, obs.NewRegistry(), true
		var cells []cell
		for _, name := range []string{"simplejson", "cliargs"} {
			p, _ := packages.ByName(name)
			cells = append(cells, repCells(p, cfg, b)...)
		}
		runCells(b, cells)
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
			t.Fatalf("line %d differs:\nparallel=1: %s\nparallel=4: %s", i+1, a[i], b[i])
		}
	}
	t.Fatalf("line counts differ: parallel=1 %d, parallel=4 %d", len(a), len(b))
}

// TestEveryExperimentHonoursBudgets: Fig. 12, the cross-check and the
// portfolio build their sessions from the budgets like the grid does, so
// each reports into the run's registry and tracer, runs under its fault
// plan and, for the portfolio, appends its solves to the store.
func TestEveryExperimentHonoursBudgets(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, b Budgets)
	}{
		{"fig12", func(t *testing.T, b Budgets) { Fig12(1, b) }},
		{"crosscheck", func(t *testing.T, b Budgets) {
			if _, err := CrossCheck(2, 2, false, b); err != nil {
				t.Fatal(err)
			}
		}},
		{"portfolio", func(t *testing.T, b Budgets) {
			store, err := solver.OpenPersistentStore(filepath.Join(t.TempDir(), "fresh.bin"))
			if err != nil {
				t.Fatal(err)
			}
			b.Persist = store.View()
			Portfolio(b)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			store.Publish(b.Metrics)
			if b.Metrics.Counter(obs.MSolverPersistAppended).Value() <= 0 {
				t.Error("the portfolio appended nothing to a fresh store")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var trace obs.Collect
			b := quickBudgets()
			b.Time = 200_000
			b.Metrics, b.Tracer = obs.NewRegistry(), &trace
			b.Faults = mustChaosPlan(t, "seed=7;solver.unknown:p=0.5")
			tc.run(t, b)
			for _, name := range []string{obs.MChefTests, obs.MFaultsInjected} {
				if b.Metrics.Counter(name).Value() <= 0 {
					t.Errorf("%s = 0", name)
				}
			}
			if len(trace.Events()) == 0 {
				t.Error("no trace events")
			}
		})
	}
}
