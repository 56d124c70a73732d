package obs

import (
	"sort"
	"strings"
	"time"
)

// Span layer names, one per instrumented stratum of the stack. The parent
// chain is fixed by the instrumentation sites (a serve job contains one chef
// session, a session contains engine runs, a run contains solver checks, a
// check contains its blast/cache/persist stages), so a profile tree built
// from span events always nests the same way.
const (
	SpanServeJob    = "serve.job"
	SpanChefSession = "chef.session"
	SpanEngineRun   = "engine.run"
	SpanSolverCheck = "solver.check"
	SpanSolverBlast = "solver.blast"
	// SpanSolverSearch is the CDCL search nested in solver.blast, so the
	// parent's self time is CNF construction plus model decoding; virtual
	// duration = the search's propagations.
	SpanSolverSearch  = "solver.search"
	SpanCacheLookup   = "solver.cache_lookup"
	SpanPersistLookup = "solver.persist_lookup"
	SpanPersistFlush  = "persist.flush"
	// SpanShardEpoch is emitted by the sharded coordinator's own profiler,
	// one span per BSP epoch (virtual duration = the epoch's clock
	// advance summed over ranges); the per-range chef.session spans live
	// on the ranges' own profilers.
	SpanShardEpoch = "shard.epoch"
)

// spanMetricPrefix namespaces the per-layer aggregate counters a profiler
// writes into its registry; SpanAggregates parses them back out.
const spanMetricPrefix = "span."

// spanCells caches the five counter handles for one layer so ending a span
// costs five atomic adds, not five map lookups.
type spanCells struct {
	count     *Counter
	virtTotal *Counter
	virtSelf  *Counter
	wallTotal *Counter
	wallSelf  *Counter
}

// Span is one open interval on a profiler's stack. The virtual duration is
// supplied by the call site at End (the engine's clock is the source of
// truth); the wall duration is measured here and is observational only.
type Span struct {
	prof      *SpanProfiler
	parent    *Span
	layer     string
	start     time.Time
	childVirt int64
	childWall int64
}

// SpanProfiler attributes virtual and wall time to the layers of the stack.
// It keeps an explicit span stack, so one profiler serves exactly one
// goroutine (the engine is single-threaded per session; parallel drivers
// create one profiler per session). Both sinks are optional: aggregates go
// to reg, span events to tracer. A nil *SpanProfiler is the disabled state —
// Start and End on nil receivers are no-ops, so instrumented sites pay one
// nil-check, mirroring the tracer contract.
type SpanProfiler struct {
	reg    *Registry
	tracer Tracer
	cur    *Span // top of the span stack
	cells  map[string]*spanCells
	free   *Span // single-slot freelist; spans close LIFO, so this absorbs most allocations
}

// NewSpanProfiler returns a profiler writing per-layer aggregates into reg
// and span events into tracer. Either sink may be nil; if both are, the
// profiler itself is nil (fully disabled).
func NewSpanProfiler(reg *Registry, tracer Tracer) *SpanProfiler {
	if reg == nil && tracer == nil {
		return nil
	}
	return &SpanProfiler{reg: reg, tracer: tracer, cells: map[string]*spanCells{}}
}

// Start opens a span for layer nested under the currently open span (if
// any). Safe on a nil profiler, returning a nil span.
func (p *SpanProfiler) Start(layer string) *Span {
	if p == nil {
		return nil
	}
	sp := p.free
	if sp != nil {
		p.free = nil
		*sp = Span{}
	} else {
		sp = &Span{}
	}
	sp.prof = p
	sp.parent = p.cur
	sp.layer = layer
	sp.start = time.Now()
	p.cur = sp
	return sp
}

// End closes the span. virt is the span's total virtual duration, supplied
// by the caller (e.g. the engine-clock delta across the interval); the span's
// self time is virt minus the totals of its direct children. Safe on a nil
// span.
func (sp *Span) End(virt int64) {
	if sp == nil {
		return
	}
	p := sp.prof
	wall := int64(time.Since(sp.start))
	selfVirt := virt - sp.childVirt
	selfWall := wall - sp.childWall
	if selfWall < 0 {
		selfWall = 0
	}
	parentLayer := ""
	if sp.parent != nil {
		sp.parent.childVirt += virt
		sp.parent.childWall += wall
		parentLayer = sp.parent.layer
	}
	p.cur = sp.parent
	if p.reg != nil {
		c := p.cells[sp.layer]
		if c == nil {
			c = &spanCells{
				count:     p.reg.Counter(spanMetricPrefix + sp.layer + ".count"),
				virtTotal: p.reg.Counter(spanMetricPrefix + sp.layer + ".virt.total"),
				virtSelf:  p.reg.Counter(spanMetricPrefix + sp.layer + ".virt.self"),
				wallTotal: p.reg.Counter(spanMetricPrefix + sp.layer + ".wall_ns.total"),
				wallSelf:  p.reg.Counter(spanMetricPrefix + sp.layer + ".wall_ns.self"),
			}
			p.cells[sp.layer] = c
		}
		c.count.Inc()
		c.virtTotal.Add(virt)
		c.virtSelf.Add(selfVirt)
		c.wallTotal.Add(wall)
		c.wallSelf.Add(selfWall)
	}
	if p.tracer != nil {
		p.tracer.Emit(&Event{
			Kind:     KindSpan,
			Layer:    sp.layer,
			Parent:   parentLayer,
			VirtCost: virt,
			SelfVirt: selfVirt,
			WallCost: wall,
			SelfWall: selfWall,
		})
	}
	sp.prof = nil
	sp.parent = nil
	p.free = sp
}

// SpanAggregate is the per-layer roll-up a profiler accumulates in its
// registry: how many spans closed and their total/self virtual and wall
// durations. Self time excludes the totals of direct child spans, so sums of
// self times partition each level's total.
type SpanAggregate struct {
	Layer     string `json:"layer"`
	Count     int64  `json:"count"`
	VirtTotal int64  `json:"virt_total"`
	VirtSelf  int64  `json:"virt_self"`
	WallTotal int64  `json:"wall_ns_total"`
	WallSelf  int64  `json:"wall_ns_self"`
}

// SpanAggregates parses the span.* counters back into per-layer aggregates,
// sorted by layer name. Empty when no profiler wrote into this registry.
func (r *Registry) SpanAggregates() []SpanAggregate {
	r.mu.Lock()
	vals := make(map[string]int64)
	for n, c := range r.counters {
		if strings.HasPrefix(n, spanMetricPrefix) {
			vals[n] = c.Value()
		}
	}
	r.mu.Unlock()

	byLayer := map[string]*SpanAggregate{}
	for n, v := range vals {
		rest := strings.TrimPrefix(n, spanMetricPrefix)
		var layer, field string
		switch {
		case strings.HasSuffix(rest, ".count"):
			layer, field = strings.TrimSuffix(rest, ".count"), "count"
		case strings.HasSuffix(rest, ".virt.total"):
			layer, field = strings.TrimSuffix(rest, ".virt.total"), "virt.total"
		case strings.HasSuffix(rest, ".virt.self"):
			layer, field = strings.TrimSuffix(rest, ".virt.self"), "virt.self"
		case strings.HasSuffix(rest, ".wall_ns.total"):
			layer, field = strings.TrimSuffix(rest, ".wall_ns.total"), "wall_ns.total"
		case strings.HasSuffix(rest, ".wall_ns.self"):
			layer, field = strings.TrimSuffix(rest, ".wall_ns.self"), "wall_ns.self"
		default:
			continue
		}
		a := byLayer[layer]
		if a == nil {
			a = &SpanAggregate{Layer: layer}
			byLayer[layer] = a
		}
		switch field {
		case "count":
			a.Count = v
		case "virt.total":
			a.VirtTotal = v
		case "virt.self":
			a.VirtSelf = v
		case "wall_ns.total":
			a.WallTotal = v
		case "wall_ns.self":
			a.WallSelf = v
		}
	}
	out := make([]SpanAggregate, 0, len(byLayer))
	for _, a := range byLayer {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}
