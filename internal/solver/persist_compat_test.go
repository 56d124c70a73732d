package solver

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	sx "chef/internal/symexpr"
)

// deepPathDigest explores 300 queries of the 8-round deep stream (see
// deeppath_test.go) with s and digests every verdict and model, variables
// in (Buf, Idx, W) order.
func deepPathDigest(s *Solver) uint64 {
	h := fnv.New64a()
	deepPathDFS(s, 8, 300, func(_ Query, res Result, model sx.Assignment) {
		vars := make([]sx.Var, 0, len(model))
		for v := range model {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i].Less(vars[j]) })
		h.Write([]byte(res.String()))
		for _, v := range vars {
			h.Write([]byte(v.String()))
			h.Write([]byte{byte(model[v])})
		}
	})
	return h.Sum64()
}

// deepPathStoreDigest is deepPathDigest of the solver that wrote
// testdata/deeppath.cxc.
const deepPathStoreDigest uint64 = 0xd479e0907704149f

// TestPersistStoreFromPreviousSlicer: testdata/deeppath.cxc was written by
// the solver as it was before slicing became prefix-incremental, from the
// deep stream with the in-memory cache off, so every solved query was
// appended. Loaded by the current solver, the store must answer every
// query the stream solves (same canonical sequences, same keys), and both
// the warm run and a cold one must reproduce the old verdicts and models
// bit for bit, at the same propagation cost.
func TestPersistStoreFromPreviousSlicer(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "deeppath.cxc"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deeppath.cxc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store := mustOpen(t, path)
	defer store.Close()
	if store.Corruption() != nil || store.Loaded() == 0 {
		t.Fatalf("store: loaded %d, corruption %v", store.Loaded(), store.Corruption())
	}

	warm := New(Options{DisableCache: true, Persist: store.View()})
	cold := New(Options{DisableCache: true})
	if got := deepPathDigest(warm); got != deepPathStoreDigest {
		t.Errorf("warm digest %#x, want %#x", got, deepPathStoreDigest)
	}
	if got := deepPathDigest(cold); got != deepPathStoreDigest {
		t.Errorf("cold digest %#x, want %#x", got, deepPathStoreDigest)
	}
	ws, cs := warm.Stats(), cold.Stats()
	if ws.CacheMisses != 0 || ws.CacheHitsPersist == 0 {
		t.Errorf("warm run: %d persist hits, %d misses; want every solved query served by the store",
			ws.CacheHitsPersist, ws.CacheMisses)
	}
	if ws.Propagations != cs.Propagations || ws.SatQueries != cs.SatQueries || ws.UnsatQueries != cs.UnsatQueries {
		t.Errorf("warm stats %+v, cold %+v", ws, cs)
	}
}
