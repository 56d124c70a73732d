package experiments

import (
	"strings"
	"testing"

	"chef/internal/packages"
)

// defaultBudgets returns budgets sized for the benchmark harness: large
// enough to show every effect, small enough for a laptop.
func defaultBudgets() Budgets {
	return Budgets{Time: 3_000_000, StepLimit: 60_000, Reps: 3, Seed: 1}
}

// quickBudgets returns reduced budgets for unit tests.
func quickBudgets() Budgets {
	return Budgets{Time: 600_000, StepLimit: 30_000, Reps: 1, Seed: 1}
}

// runOne runs one grid cell the way the harness does and returns its
// result; its trace and metrics reach b's tracer and registry.
func runOne(p *packages.Package, cfg Configuration, b Budgets, seed int64) RunResult {
	return runCells(b, []cell{{p: p, cfg: cfg, seed: seed}})[0]
}

func TestFourConfigurations(t *testing.T) {
	for _, pathOpt := range []bool{true, false} {
		cfgs := FourConfigurations(pathOpt)
		if len(cfgs) != 4 {
			t.Fatalf("want 4 configurations, got %d", len(cfgs))
		}
		if cfgs[0].Interp.HashNeutralization || cfgs[3].Interp != (FourConfigurations(true)[3].Interp) {
			t.Error("config grid wrong")
		}
	}
}

func TestAggregateConfigurationWins(t *testing.T) {
	// The paper's core claim (§6.3): CUPA + optimizations beats the
	// baseline on test-case generation for the string-heavy parsers.
	b := quickBudgets()
	p, _ := packages.ByName("simplejson")
	cfgs := FourConfigurations(true)
	base := runOne(p, cfgs[0], b, 1)
	aggr := runOne(p, cfgs[3], b, 1)
	if aggr.HLTests <= base.HLTests {
		t.Fatalf("aggregate (%d tests) must beat baseline (%d tests)", aggr.HLTests, base.HLTests)
	}
	if aggr.Coverage <= base.Coverage {
		t.Fatalf("aggregate coverage %.2f must beat baseline %.2f", aggr.Coverage, base.Coverage)
	}
}

func TestHLPathEfficiencyImprovesWithOptimizations(t *testing.T) {
	// Fig. 10's claim: the HL/LL ratio is higher with optimizations.
	b := quickBudgets()
	p, _ := packages.ByName("simplejson")
	cfgs := FourConfigurations(true)
	base := runOne(p, cfgs[0], b, 1)
	aggr := runOne(p, cfgs[3], b, 1)
	rb := float64(base.HLTests) / float64(base.LLPaths)
	ra := float64(aggr.HLTests) / float64(aggr.LLPaths)
	if ra <= rb {
		t.Fatalf("aggregate efficiency %.3f must beat baseline %.3f", ra, rb)
	}
}

func TestTable3FindsJSONHangAndXlrdExceptions(t *testing.T) {
	b := quickBudgets()
	b.Time = 1_200_000
	cfg := FourConfigurations(true)[3]
	j, _ := packages.ByName("JSON")
	jres := runOne(j, cfg, b, 1)
	if jres.Hangs == 0 {
		t.Error("the sb-JSON comment hang was not found")
	}
	x, _ := packages.ByName("xlrd")
	xres := runOne(x, cfg, b, 1)
	undoc := 0
	for exc := range xres.Exceptions {
		if !x.IsDocumented(exc) {
			undoc++
		}
	}
	if len(xres.Exceptions) < 2 || undoc < 1 {
		t.Errorf("xlrd exceptions found: %v (undocumented %d); want several incl. undocumented",
			xres.Exceptions, undoc)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	if !strings.Contains(RenderTable2(Table2()), "HLPC instrumentation") {
		t.Error("table2 render")
	}
	if !strings.Contains(RenderTable4(Table4()), "Native methods") {
		t.Error("table4 render")
	}
}

func TestFig12OverheadAboveOne(t *testing.T) {
	// CHEF pays for interpreter fidelity: per-path cost must exceed the
	// dedicated engine's (Fig. 12's premise), and the optimizations must
	// reduce the overhead of the vanilla build.
	b := quickBudgets()
	pts := Fig12(2, b)
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	byLevel := map[string]float64{}
	for _, p := range pts {
		if p.Frames == 2 {
			byLevel[p.Level] = p.Overhead
		}
	}
	if byLevel["+ Fast Path Elimination"] <= 0 {
		t.Fatal("missing full-opt point")
	}
	if byLevel["No Optimizations"] < byLevel["+ Fast Path Elimination"] {
		t.Errorf("vanilla overhead %.1f should exceed optimized %.1f",
			byLevel["No Optimizations"], byLevel["+ Fast Path Elimination"])
	}
	for lvl, ov := range byLevel {
		if ov < 1 {
			t.Errorf("%s: overhead %.2f < 1; CHEF should not be cheaper per path", lvl, ov)
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 6})
	if m != 4 {
		t.Errorf("mean = %f", m)
	}
	if s < 1.6 || s > 1.7 {
		t.Errorf("std = %f", s)
	}
	if m, s = meanStd(nil); m != 0 || s != 0 {
		t.Error("empty series")
	}
}

func TestFig10SeriesMonotoneBudget(t *testing.T) {
	b := quickBudgets()
	b.Time = 400_000
	series := Fig10(b)
	if len(series) != 8 { // 4 configs x 2 languages
		t.Fatalf("got %d series, want 8", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 10 {
			t.Fatalf("series %s/%s has %d points", s.Lang, s.Config, len(s.Points))
		}
	}
	out := RenderFig10(series)
	if !strings.Contains(out, "Baseline") {
		t.Error("render missing configs")
	}
}

func TestCrossCheckWorkflow(t *testing.T) {
	b := quickBudgets()
	// A correct dedicated engine covers every CHEF HL path (its per-entry
	// dict forks are strictly finer than HL paths).
	good, err := CrossCheck(2, 2, false, b)
	if err != nil {
		t.Fatal(err)
	}
	if good.MissedHLPaths != 0 {
		t.Errorf("correct dedicated engine missed %d HL paths: %+v", good.MissedHLPaths, good)
	}
	if good.DuplicateTests == 0 {
		t.Errorf("expected redundancy from per-entry forks: %+v", good)
	}
	out := RenderCrossCheck("fixed engine", good)
	if !strings.Contains(out, "CHEF high-level paths") {
		t.Error("render incomplete")
	}
}

func TestBudgetPresets(t *testing.T) {
	d := defaultBudgets()
	q := quickBudgets()
	if d.Time <= q.Time || d.Reps < q.Reps || d.StepLimit <= 0 || q.StepLimit <= 0 {
		t.Fatalf("budget presets inconsistent: default %+v quick %+v", d, q)
	}
}
