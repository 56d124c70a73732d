package chef

import (
	"context"
	"reflect"
	"testing"

	"chef/internal/obs"
)

// A run with an uncancelled context must be byte-identical to Run: the
// context check is observation-only until it fires.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	a := NewSession(validateEmailProg(6), Options{Strategy: StrategyCUPAPath, Seed: 7})
	ta := a.Run(1 << 22)
	b := NewSession(validateEmailProg(6), Options{Strategy: StrategyCUPAPath, Seed: 7})
	tb := b.RunContext(context.Background(), 1<<22)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("RunContext(Background) diverged from Run:\n%v\nvs\n%v", ta, tb)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summaries diverged: %+v vs %+v", a.Summary(), b.Summary())
	}
	if b.Cancelled() {
		t.Fatal("uncancelled run reports Cancelled")
	}
}

// A context cancelled before the run starts must not explore at all, and the
// session must still terminate cleanly (the worker-slot release path in the
// server depends on RunContext returning).
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &obs.Collect{}
	s := NewSession(validateEmailProg(6), Options{Strategy: StrategyCUPAPath, Seed: 1, Tracer: tr})
	tests := s.RunContext(ctx, 1<<22)
	if len(tests) != 0 {
		t.Fatalf("pre-cancelled run produced %d tests", len(tests))
	}
	if !s.Cancelled() {
		t.Fatal("Cancelled() = false after pre-cancelled run")
	}
	if got := s.Summary().Runs; got != 0 {
		t.Fatalf("pre-cancelled run executed %d engine runs, want 0", got)
	}
	var end *obs.Event
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindSessionEnd {
			e := ev
			end = &e
		}
	}
	if end == nil || end.Status != "cancelled" {
		t.Fatalf("session-end event = %+v, want Status cancelled", end)
	}
}

// Cancelling mid-exploration stops the session after at most one more
// engine run, keeping the tests generated before the cancellation point.
func TestRunContextCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	runs := 0
	inner := validateEmailProg(6)
	prog := func(c *Ctx) {
		runs++
		if runs == 2 {
			cancel()
		}
		inner(c)
	}
	s := NewSession(prog, Options{Strategy: StrategyCUPAPath, Seed: 1})
	s.RunContext(ctx, 1<<22)
	if !s.Cancelled() {
		t.Fatal("Cancelled() = false after mid-run cancel")
	}
	// The cancel fires during run 2; the loop checks the context before
	// every subsequent run, so exploration stops right there.
	if got := s.Summary().Runs; got != 2 {
		t.Fatalf("session executed %d engine runs after cancel at run 2, want 2", got)
	}
}
