package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"chef/internal/packages"
	"chef/internal/solver"
)

// TestRunPackageShardedDeterminism proves the harness-level sharding
// property on both interpreters, cold and warm: a sharded run's RunResult —
// tests, low-level paths, coverage, series, virtual time, solver traffic —
// is identical whether the range cells are driven by 1 or 4 epoch workers.
// Warm runs read a store prewarmed by an unsharded pass, which answers only
// part of the sharded runs' queries. Every warm run reads one view taken
// right after the store opened, so every warm run sees the same entries.
func TestRunPackageShardedDeterminism(t *testing.T) {
	cfg := FourConfigurations(true)[3]
	for _, name := range []string{"simplejson", "JSON"} {
		p, ok := packages.ByName(name)
		if !ok {
			t.Fatalf("package %q missing", name)
		}
		run := func(view *solver.PersistView, shards int) RunResult {
			b := quickBudgets()
			b.Time = 300_000
			b.Shards = shards
			b.Persist = view
			return runOne(p, cfg, b, 42)
		}
		path := filepath.Join(t.TempDir(), "store.bin")
		prewarm, err := solver.OpenPersistentStore(path)
		if err != nil {
			t.Fatal(err)
		}
		run(prewarm.View(), 0)
		if err := prewarm.Close(); err != nil {
			t.Fatal(err)
		}
		warm, err := solver.OpenPersistentStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Close()

		for _, view := range []*solver.PersistView{nil, warm.View()} {
			serial := run(view, 1)
			if serial.HLTests == 0 {
				t.Fatalf("%s/warm=%v: sharded run found no tests; comparison is vacuous", name, view != nil)
			}
			if view != nil && serial.Solver.CacheHitsPersist == 0 {
				t.Fatalf("%s: warm run recorded no persistent hits; comparison is vacuous", name)
			}
			multi := run(view, 4)
			if !reflect.DeepEqual(serial, multi) {
				t.Fatalf("%s/warm=%v: sharded run diverged between 1 and 4 workers:\nserial %+v\nmulti  %+v",
					name, view != nil, serial, multi)
			}
		}
	}
}
