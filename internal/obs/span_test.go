package obs

import "testing"

func TestSpanProfilerNilSafe(t *testing.T) {
	if NewSpanProfiler(nil, nil) != nil {
		t.Error("profiler with no sinks should be nil (fully disabled)")
	}
	var p *SpanProfiler
	sp := p.Start(SpanEngineRun)
	if sp != nil {
		t.Error("Start on nil profiler should return a nil span")
	}
	sp.End(42) // must not panic
}

func TestSpanNestingAndSelfTime(t *testing.T) {
	reg := NewRegistry()
	var c Collect
	p := NewSpanProfiler(reg, &c)

	outer := p.Start(SpanChefSession)
	inner := p.Start(SpanEngineRun)
	leaf := p.Start(SpanSolverCheck)
	leaf.End(10)
	inner.End(40)
	inner2 := p.Start(SpanEngineRun)
	inner2.End(25)
	outer.End(100)

	aggs := map[string]SpanAggregate{}
	for _, a := range reg.SpanAggregates() {
		aggs[a.Layer] = a
	}
	cases := []struct {
		layer             string
		count, total, slf int64
	}{
		// session total 100, minus direct children 40+25.
		{SpanChefSession, 1, 100, 35},
		// two runs totalling 65; the first loses its child's 10 to self.
		{SpanEngineRun, 2, 65, 55},
		{SpanSolverCheck, 1, 10, 10},
	}
	for _, want := range cases {
		got, ok := aggs[want.layer]
		if !ok {
			t.Fatalf("no aggregate for %s", want.layer)
		}
		if got.Count != want.count || got.VirtTotal != want.total || got.VirtSelf != want.slf {
			t.Errorf("%s: count=%d total=%d self=%d, want %d/%d/%d",
				want.layer, got.Count, got.VirtTotal, got.VirtSelf, want.count, want.total, want.slf)
		}
		if got.WallSelf < 0 || got.WallSelf > got.WallTotal {
			t.Errorf("%s: wall self %d outside [0, total %d]", want.layer, got.WallSelf, got.WallTotal)
		}
	}

	// Self times partition each level: session self + child totals = session total.
	if aggs[SpanChefSession].VirtSelf+aggs[SpanEngineRun].VirtTotal != aggs[SpanChefSession].VirtTotal {
		t.Error("self + direct child totals should equal the parent total")
	}

	events := c.Events()
	if len(events) != 4 {
		t.Fatalf("%d span events, want 4", len(events))
	}
	// Spans close LIFO: leaf, inner, inner2, outer.
	wantOrder := []struct{ layer, parent string }{
		{SpanSolverCheck, SpanEngineRun},
		{SpanEngineRun, SpanChefSession},
		{SpanEngineRun, SpanChefSession},
		{SpanChefSession, ""},
	}
	for i, w := range wantOrder {
		ev := events[i]
		if ev.Kind != KindSpan || ev.Layer != w.layer || ev.Parent != w.parent {
			t.Errorf("event %d: kind=%s layer=%s parent=%s, want span/%s/%s",
				i, ev.Kind, ev.Layer, ev.Parent, w.layer, w.parent)
		}
	}
	if events[1].VirtCost != 40 || events[1].SelfVirt != 30 {
		t.Errorf("first engine.run event virt=%d self=%d, want 40/30", events[1].VirtCost, events[1].SelfVirt)
	}
	if events[3].VirtCost != 100 || events[3].SelfVirt != 35 {
		t.Errorf("session event virt=%d self=%d, want 100/35", events[3].VirtCost, events[3].SelfVirt)
	}
}

func TestSpanAggregatesSortedAndMergeable(t *testing.T) {
	reg := NewRegistry()
	p := NewSpanProfiler(reg, nil)
	p.Start(SpanSolverCheck).End(3)
	p.Start(SpanEngineRun).End(7)

	aggs := reg.SpanAggregates()
	for i := 1; i < len(aggs); i++ {
		if aggs[i-1].Layer >= aggs[i].Layer {
			t.Errorf("aggregates not sorted: %s before %s", aggs[i-1].Layer, aggs[i].Layer)
		}
	}

	// Span counters ride the ordinary counter namespace, so child registries
	// roll up through the existing Merge path.
	parent := NewRegistry()
	parent.Merge(reg)
	parent.Merge(reg)
	merged := map[string]SpanAggregate{}
	for _, a := range parent.SpanAggregates() {
		merged[a.Layer] = a
	}
	if got := merged[SpanEngineRun]; got.Count != 2 || got.VirtTotal != 14 {
		t.Errorf("merged engine.run count=%d total=%d, want 2/14", got.Count, got.VirtTotal)
	}
}

func TestSpanTracerOnlyProfiler(t *testing.T) {
	var c Collect
	p := NewSpanProfiler(nil, &c)
	if p == nil {
		t.Fatal("tracer-only profiler should be enabled")
	}
	p.Start(SpanServeJob).End(5)
	evs := c.Events()
	if len(evs) != 1 || evs[0].Layer != SpanServeJob || evs[0].VirtCost != 5 {
		t.Errorf("tracer-only span event = %+v", evs)
	}
}

// nopTracer drops every event.
type nopTracer struct{}

func (nopTracer) Emit(Event) {}

// TestSpanEndWithTracerDoesNotAllocate: closing a span hands its event to
// the tracer by value, so a traced span allocates nothing.
func TestSpanEndWithTracerDoesNotAllocate(t *testing.T) {
	p := NewSpanProfiler(nil, nopTracer{})
	outer := p.Start(SpanChefSession)
	if n := testing.AllocsPerRun(100, func() {
		p.Start(SpanEngineRun).End(1)
	}); n != 0 {
		t.Fatalf("a traced Start/End pair allocated %.1f times, want 0", n)
	}
	outer.End(1)
}
