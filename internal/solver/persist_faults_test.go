package solver

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	sx "chef/internal/symexpr"
)

// appendDistinct queues n entries with distinct canonical queries, in order.
func appendDistinct(t *testing.T, p *PersistentStore, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		canon, key := persistQuery(uint64(k))
		model := sx.Assignment{{Buf: "a", W: sx.W8}: uint64(k+1) & 0xff}
		p.Append(key, canon, Sat, model, int64(10+k))
	}
}

// Regression for the dropped-buffer bug: a failed write used to discard the
// pending frames silently. A single injected write error must be retried
// transparently — nothing lost, Close clean, every entry durable.
func TestPersistWriteErrorRetriesAndRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	w := mustOpen(t, path)
	w.SetFaults(mustFaultPlan(t, "persist.write:err@n=1").Injector("p"))
	appendDistinct(t, w, 10)
	if err := w.Close(); err != nil {
		t.Fatalf("close after a recoverable write fault: %v", err)
	}
	if w.writeErrsN.Load() != 1 || w.Retries() < 1 {
		t.Fatalf("write errors = %d, retries = %d; want 1 error and >= 1 retry",
			w.writeErrsN.Load(), w.Retries())
	}
	if w.Lost() != 0 || w.Appended() != 10 {
		t.Fatalf("lost = %d, appended = %d; want nothing lost", w.Lost(), w.Appended())
	}

	r := mustOpen(t, path)
	defer r.Close()
	if r.Corruption() != nil {
		t.Fatalf("retried file reports corruption: %v", r.Corruption())
	}
	if r.Loaded() != 10 {
		t.Fatalf("loaded = %d, want 10", r.Loaded())
	}
	for k := uint64(0); k < 10; k++ {
		canon, key := persistQuery(k)
		if res, _, _, ok := r.View().Lookup(key, canon); !ok || res != Sat {
			t.Fatalf("k=%d: ok=%v res=%v after retried write", k, ok, res)
		}
	}
}

// A short write (half the buffer lands, then an error) must retain the
// unwritten tail and resume the byte stream exactly: the reloaded file is
// uncorrupted and complete.
func TestPersistShortWriteRetainsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	w := mustOpen(t, path)
	w.SetFaults(mustFaultPlan(t, "persist.write:short@n=1").Injector("p"))
	appendDistinct(t, w, 10)
	if err := w.Close(); err != nil {
		t.Fatalf("close after a recoverable short write: %v", err)
	}
	if w.writeErrsN.Load() != 1 || w.Lost() != 0 || w.Appended() != 10 {
		t.Fatalf("write errors = %d, lost = %d, appended = %d; want 1/0/10",
			w.writeErrsN.Load(), w.Lost(), w.Appended())
	}

	r := mustOpen(t, path)
	defer r.Close()
	if r.Corruption() != nil {
		t.Fatalf("short-write file reports corruption: %v", r.Corruption())
	}
	if r.Loaded() != 10 {
		t.Fatalf("loaded = %d, want 10 (tail dropped on short write?)", r.Loaded())
	}
}

// Under a persistent write failure the store must give up loudly after the
// retry budget: Close returns the disable error, every accepted entry is
// accounted lost (Appended drops to zero), and — since err-mode writes land
// zero bytes — the file on disk stays a clean, empty cache.
func TestPersistGiveUpAfterRetryBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	w := mustOpen(t, path)
	w.SetFaults(mustFaultPlan(t, "persist.write:err").Injector("p"))
	appendDistinct(t, w, 10)
	err := w.Close()
	if err == nil || !strings.Contains(err.Error(), "appends disabled") {
		t.Fatalf("close = %v, want the appends-disabled error", err)
	}
	if w.Lost() == 0 {
		t.Fatal("give-up accounted nothing as lost")
	}
	if w.Appended() != 0 {
		t.Fatalf("appended = %d after give-up, want 0 (lost entries must be subtracted)", w.Appended())
	}
	if w.writeErrsN.Load() < maxFlushRetries {
		t.Fatalf("write errors = %d, want >= %d consecutive failures before giving up",
			w.writeErrsN.Load(), maxFlushRetries)
	}

	r := mustOpen(t, path)
	defer r.Close()
	if r.Corruption() != nil || r.Loaded() != 0 {
		t.Fatalf("corruption=%v loaded=%d; want a clean empty cache", r.Corruption(), r.Loaded())
	}
}

// Give-up under sustained short writes: bytes do land on disk, so the file
// must still load as a valid prefix of the append order, and the durable
// count must equal Appended (accepted minus lost) exactly.
func TestPersistShortGiveUpLeavesLoadablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cxc.bin")
	w := mustOpen(t, path)
	w.SetFaults(mustFaultPlan(t, "persist.write:short").Injector("p"))
	appendDistinct(t, w, 12)
	if err := w.Close(); err == nil {
		t.Fatal("close succeeded under sustained short writes")
	}
	if w.Lost() == 0 {
		t.Fatal("give-up accounted nothing as lost")
	}

	r := mustOpen(t, path)
	defer r.Close()
	if int64(r.Loaded()) != w.Appended() {
		t.Fatalf("loaded %d entries, want %d (durable == appended - lost)", r.Loaded(), w.Appended())
	}
	// Durable frames are a prefix of the append order: frame k is loadable
	// iff k < Loaded().
	for k := 0; k < 12; k++ {
		canon, key := persistQuery(uint64(k))
		_, _, _, ok := r.View().Lookup(key, canon)
		if want := k < r.Loaded(); ok != want {
			t.Fatalf("k=%d: loadable=%v, want %v (durable frames not a prefix)", k, ok, want)
		}
	}
}

// Property check across seeds: whatever mix of failed, short and clean
// writes a probabilistic plan produces, the reloaded entry count must equal
// the writer's final Appended — the accounting invariant the counters
// promise (durable == accepted - lost).
func TestPersistRandomWriteFaultsInvariant(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		short := ""
		if seed%2 == 0 {
			short = "short@"
		}
		spec := fmt.Sprintf("seed=%d;persist.write:%sp=0.5", seed, short)
		path := filepath.Join(t.TempDir(), fmt.Sprintf("cxc%d.bin", seed))
		w := mustOpen(t, path)
		w.SetFaults(mustFaultPlan(t, spec).Injector("p"))
		appendDistinct(t, w, 30)
		cerr := w.Close() // may or may not give up; the invariant holds either way

		r := mustOpen(t, path)
		if int64(r.Loaded()) != w.Appended() {
			t.Fatalf("seed=%d (%s): loaded %d, appended %d, lost %d (close err: %v)",
				seed, spec, r.Loaded(), w.Appended(), w.Lost(), cerr)
		}
		if cerr == nil && w.Lost() != 0 {
			t.Fatalf("seed=%d: clean close but lost = %d", seed, w.Lost())
		}
		if cerr != nil && w.Lost() == 0 {
			t.Fatalf("seed=%d: failed close but lost = 0", seed)
		}
		r.Close()
	}
}
