package solver

import (
	"path/filepath"
	"sync"
	"testing"

	"chef/internal/obs"
	sx "chef/internal/symexpr"
)

// A view snapshots the answerable set at creation: entries appended after
// View() are invisible to it, while a later view sees them.
func TestPersistViewSnapshotSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	p := mustOpen(t, path)
	defer p.Close()

	v1 := p.View()
	canon, key := persistQuery(5)
	model := sx.Assignment{{Buf: "a", W: sx.W8}: 6}
	p.Append(key, canon, Sat, model, 123)

	if _, _, _, ok := v1.Lookup(key, canon); ok {
		t.Fatal("append after View() visible to the earlier view")
	}
	v2 := p.View()
	r, m, cost, ok := v2.Lookup(key, canon)
	if !ok || r != Sat || cost != 123 {
		t.Fatalf("later view lookup = (%v, cost %d, ok %v), want (Sat, 123, true)", r, cost, ok)
	}
	if m[sx.Var{Buf: "a", W: sx.W8}] != 6 {
		t.Fatalf("model = %v, want a=6", m)
	}
}

// Appending through a view publishes for later views, exactly like
// appending through the store.
func TestPersistViewAppendPublishes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	p := mustOpen(t, path)
	defer p.Close()

	v1 := p.View()
	canon, key := persistQuery(9)
	v1.Append(key, canon, Unsat, nil, 55)
	if _, _, _, ok := v1.Lookup(key, canon); ok {
		t.Fatal("view sees its own append (snapshot should be fixed)")
	}
	v2 := p.View()
	if r, _, cost, ok := v2.Lookup(key, canon); !ok || r != Unsat || cost != 55 {
		t.Fatalf("later view lookup = (%v, cost %d, ok %v), want (Unsat, 55, true)", r, cost, ok)
	}
}

// A published model must be insulated from later caller mutation: the solver
// merges extra bindings into the model it just appended.
func TestPersistViewModelInsulatedFromCallerMutation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	p := mustOpen(t, path)
	defer p.Close()

	canon, key := persistQuery(2)
	model := sx.Assignment{{Buf: "a", W: sx.W8}: 3}
	p.Append(key, canon, Sat, model, 10)
	model[sx.Var{Buf: "a", W: sx.W8}] = 99 // what solver.merge does post-append
	_, m, _, ok := p.View().Lookup(key, canon)
	if !ok {
		t.Fatal("published entry not found")
	}
	if got := m[sx.Var{Buf: "a", W: sx.W8}]; got != 3 {
		t.Fatalf("published model mutated through caller alias: a=%d, want 3", got)
	}
}

// Nil stores and views are inert (the server passes them through options
// unconditionally).
func TestPersistViewNilSafety(t *testing.T) {
	var p *PersistentStore
	if v := p.View(); v != nil {
		t.Fatal("nil store View() != nil")
	}
	var v *PersistView
	canon, key := persistQuery(1)
	if _, _, _, ok := v.Lookup(key, canon); ok {
		t.Fatal("nil view lookup reported a hit")
	}
	v.Append(key, canon, Sat, nil, 1) // must not panic
	p.Append(key, canon, Sat, nil, 1) // must not panic
	p.Publish(obs.NewRegistry())      // must not panic
}

// Concurrent appends and view creations race-cleanly (run under -race), and
// the store file stays loadable with every entry afterwards.
func TestPersistViewConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	p := mustOpen(t, path)

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := uint64(w*perWorker + i)
				canon, key := persistQuery(k)
				v := p.View()
				v.Append(key, canon, Sat, sx.Assignment{{Buf: "a", W: sx.W8}: (k + 1) & 0xff}, int64(k))
				p.View().Lookup(key, canon)
			}
		}(w)
	}
	wg.Wait()
	// Every published entry is visible to a fresh view.
	v := p.View()
	for k := uint64(0); k < workers*perWorker; k++ {
		canon, key := persistQuery(k)
		if _, _, _, ok := v.Lookup(key, canon); !ok {
			t.Fatalf("entry %d missing from post-quiesce view", k)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := mustOpen(t, path)
	defer r.Close()
	if r.Corruption() != nil {
		t.Fatalf("store corrupt after concurrent appends: %v", r.Corruption())
	}
	if got := r.Loaded(); got != workers*perWorker {
		t.Fatalf("reloaded %d entries, want %d", got, workers*perWorker)
	}
}
