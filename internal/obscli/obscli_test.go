package obscli

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"chef/internal/obs"
	"chef/internal/serve"
)

// runJob runs one small job against the flags' store and faults, the way
// cmd/chef does.
func runJob(t *testing.T, f *Flags) {
	t.Helper()
	spec := serve.JobSpec{Package: "simplejson", Budget: 100_000, Seed: 1}
	_, err := serve.Execute(context.Background(), spec, serve.ExecOptions{
		Metrics: f.Registry(),
		Faults:  f.Faults(),
		Persist: f.Store().View(),
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
}

// -spans -cachefile profiles the store's flusher, and Finish publishes the
// store's counts after closing it.
func TestSpansProfileStoreFlushes(t *testing.T) {
	f := Flags{Spans: true, cacheFile: filepath.Join(t.TempDir(), "cxc.bin")}
	if err := f.Start("test"); err != nil {
		t.Fatal(err)
	}
	runJob(t, &f)
	if err := f.Finish(io.Discard); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if f.Store().Appended() == 0 {
		t.Fatal("job appended nothing to the store; the checks below are vacuous")
	}
	reg := f.Registry()
	if n := reg.Counter("span." + obs.SpanPersistFlush + ".count").Value(); n == 0 {
		t.Fatalf("span.%s.count = 0 under -spans -cachefile", obs.SpanPersistFlush)
	}
	if got, want := reg.Counter(obs.MSolverPersistAppended).Value(), f.Store().Appended(); got != want {
		t.Fatalf("published %s = %d, want %d", obs.MSolverPersistAppended, got, want)
	}
}

// A store that loses appends makes Finish return its close error, named
// after the flag, so the CLIs exit nonzero.
func TestFinishReturnsStoreCloseError(t *testing.T) {
	f := Flags{Metrics: true, cacheFile: filepath.Join(t.TempDir(), "cxc.bin"), faultSpec: "persist.write:err"}
	if err := f.Start("test"); err != nil {
		t.Fatal(err)
	}
	runJob(t, &f)
	err := f.Finish(io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "-cachefile: ") {
		t.Fatalf("finish = %v, want the store's -cachefile close error", err)
	}
	if got, want := f.Registry().Counter(obs.MSolverPersistLost).Value(), f.Store().Lost(); got == 0 || got != want {
		t.Fatalf("published %s = %d, want the store's %d > 0", obs.MSolverPersistLost, got, want)
	}
	if f.PersistInjected() == 0 {
		t.Fatal("no persist write fault injected under persist.write:err")
	}
}
