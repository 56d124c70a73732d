package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiments/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenBudgets pins every knob that affects rendered output. Golden tests
// run the harness at full parallelism on purpose: together with the
// determinism suite they prove that the checked-in bytes are reproducible on
// any machine and any GOMAXPROCS.
func goldenBudgets() Budgets {
	b := quickBudgets()
	b.Time = 300_000
	b.Reps = 2
	b.Parallel = 0 // GOMAXPROCS; output must not depend on this
	return b
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden file %s.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with: go test ./internal/experiments/ -run Golden -update",
			name, path, got, want)
	}
}

// TestGoldenTable2 pins the interpreter-completeness table, which is fully
// static (no exploration), so it never depends on budgets.
func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2", RenderTable2(Table2()))
}

// TestGoldenTable3 pins the package-metadata + testing-results table under
// the quick grid.
func TestGoldenTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	checkGolden(t, "table3", RenderTable3(Table3(goldenBudgets())))
}

// TestGoldenFig8 pins the four-configuration comparison figure under the
// quick grid.
func TestGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	checkGolden(t, "fig8", RenderFig8(Fig8(goldenBudgets())))
}
