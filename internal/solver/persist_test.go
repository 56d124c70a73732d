package solver

import (
	"os"
	"path/filepath"
	"testing"

	sx "chef/internal/symexpr"
)

// persistQuery builds a canonical single-constraint query for persistence
// tests: a != k over a byte variable.
func persistQuery(k uint64) ([]*sx.Expr, uint64) {
	a := sx.NewVar(sx.Var{Buf: "a", W: sx.W8})
	canon := canonicalize([]*sx.Expr{sx.Ne(a, sx.Const(k, sx.W8))})
	return canon, canonKey(canon)
}

func mustOpen(t *testing.T, path string) *PersistentStore {
	t.Helper()
	p, err := OpenPersistentStore(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return p
}

// TestPersistRoundTrip: entries written by one store instance are visible,
// bit-exact, to a fresh instance reading the same file.
func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	w := mustOpen(t, path)
	var keys []uint64
	for k := uint64(0); k < 20; k++ {
		canon, key := persistQuery(k)
		model := sx.Assignment{{Buf: "a", W: sx.W8}: (k + 1) & 0xff}
		w.Append(key, canon, Sat, model, int64(100+k))
		keys = append(keys, key)
	}
	unsatCanon := canonicalize([]*sx.Expr{
		sx.Ult(sx.NewVar(sx.Var{Buf: "a", W: sx.W8}), sx.Const(3, sx.W8)),
		sx.Ult(sx.Const(9, sx.W8), sx.NewVar(sx.Var{Buf: "a", W: sx.W8})),
	})
	unsatKey := canonKey(unsatCanon)
	w.Append(unsatKey, unsatCanon, Unsat, nil, 777)
	if got := w.Appended(); got != 21 {
		t.Fatalf("appended = %d, want 21", got)
	}
	// Appends must not be visible to the writing process's own lookups.
	if _, _, _, ok := w.Lookup(keys[0], mustCanon(0)); ok {
		t.Fatal("in-run append visible to in-run lookup")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := mustOpen(t, path)
	defer r.Close()
	if r.Corruption() != nil {
		t.Fatalf("clean file reported corruption: %v", r.Corruption())
	}
	if r.Loaded() != 21 {
		t.Fatalf("loaded = %d, want 21", r.Loaded())
	}
	for k := uint64(0); k < 20; k++ {
		canon, key := persistQuery(k)
		res, m, cost, ok := r.Lookup(key, canon)
		if !ok || res != Sat || cost != int64(100+k) {
			t.Fatalf("k=%d: ok=%v res=%v cost=%d", k, ok, res, cost)
		}
		if got := m[sx.Var{Buf: "a", W: sx.W8}]; got != (k+1)&0xff {
			t.Fatalf("k=%d: model value %d, want %d", k, got, (k+1)&0xff)
		}
	}
	res, m, cost, ok := r.Lookup(unsatKey, unsatCanon)
	if !ok || res != Unsat || m != nil || cost != 777 {
		t.Fatalf("unsat entry: ok=%v res=%v m=%v cost=%d", ok, res, m, cost)
	}
}

func mustCanon(k uint64) []*sx.Expr {
	canon, _ := persistQuery(k)
	return canon
}

// TestPersistCorruption: every corruption of a valid file must load the
// valid prefix, report the problem, disable appends and never crash.
func TestPersistCorruption(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.bin")
	w := mustOpen(t, clean)
	for k := uint64(0); k < 5; k++ {
		canon, key := persistQuery(k)
		w.Append(key, canon, Sat, sx.Assignment{{Buf: "a", W: sx.W8}: 0}, 1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte, wantLoadedMax int) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, mutate(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		p := mustOpen(t, path)
		defer p.Close()
		if p.Corruption() == nil {
			t.Fatalf("%s: corruption not detected", name)
		}
		if p.Loaded() > wantLoadedMax {
			t.Fatalf("%s: loaded %d entries, want <= %d", name, p.Loaded(), wantLoadedMax)
		}
		// Appends must be rejected so the file is not extended past garbage.
		canon, key := persistQuery(99)
		p.Append(key, canon, Unsat, nil, 1)
		if p.Appended() != 0 {
			t.Fatalf("%s: append accepted on corrupt store", name)
		}
	}

	check("badmagic.bin", func(b []byte) []byte { b[0] ^= 0xff; return b }, 0)
	check("truncated.bin", func(b []byte) []byte { return b[:len(b)-3] }, 4)
	check("bitflip.bin", func(b []byte) []byte { b[len(b)-6] ^= 0x40; return b }, 4)
	check("garbage-tail.bin", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }, 5)
	check("short.bin", func(b []byte) []byte { return b[:3] }, 0)

	// A corrupt-length frame must not trigger a huge allocation.
	huge := append([]byte(persistMagic), 0xff, 0xff, 0xff, 0x7f)
	path := filepath.Join(dir, "hugelen.bin")
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	p := mustOpen(t, path)
	defer p.Close()
	if p.Corruption() == nil || p.Loaded() != 0 {
		t.Fatalf("hugelen: corruption=%v loaded=%d", p.Corruption(), p.Loaded())
	}

	// Empty and fresh files are not corrupt.
	fresh := mustOpen(t, filepath.Join(dir, "fresh.bin"))
	if fresh.Corruption() != nil || fresh.Loaded() != 0 {
		t.Fatalf("fresh: corruption=%v loaded=%d", fresh.Corruption(), fresh.Loaded())
	}
	fresh.Close()
	// Reopening the (magic-only) fresh file is clean too.
	again := mustOpen(t, filepath.Join(dir, "fresh.bin"))
	if again.Corruption() != nil {
		t.Fatalf("magic-only reopen: %v", again.Corruption())
	}
	again.Close()
}

// TestPersistSolverDisagreementNeverCrashes: a solver pointed at a corrupt
// store must behave exactly like a cold one.
func TestPersistCorruptStoreColdEquivalence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(path, []byte("not a cache file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := mustOpen(t, path)
	defer store.Close()
	if store.Corruption() == nil {
		t.Fatal("garbage accepted")
	}
	warm := New(Options{Persist: store})
	cold := New(Options{})
	queries := genOracleQueries(t, 50, 7)
	for i, q := range queries {
		r1, m1 := warm.CheckQuery(Query{PC: q.pc, Base: q.base})
		r2, m2 := cold.CheckQuery(Query{PC: q.pc, Base: q.base})
		if r1 != r2 || !sameModel(m1, m2) {
			t.Fatalf("query %d: corrupt-store solver diverged from cold solver", i)
		}
	}
	if st := warm.Stats(); st.CacheHitsPersist != 0 {
		t.Fatalf("corrupt store produced persistent hits: %+v", st)
	}
}

// TestPersistDedup: re-appending a key already on disk or already appended
// this run is a no-op.
func TestPersistDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	w := mustOpen(t, path)
	canon, key := persistQuery(1)
	w.Append(key, canon, Unsat, nil, 5)
	w.Append(key, canon, Unsat, nil, 5) // same run duplicate
	if w.Appended() != 1 {
		t.Fatalf("appended = %d, want 1", w.Appended())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, path)
	r.Append(key, canon, Unsat, nil, 5) // already on disk
	if r.Appended() != 0 {
		t.Fatalf("appended = %d, want 0 (entry already on disk)", r.Appended())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, path)
	defer r2.Close()
	if r2.Loaded() != 1 {
		t.Fatalf("loaded = %d, want 1", r2.Loaded())
	}
}
