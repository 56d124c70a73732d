package chef

import (
	"chef/internal/lowlevel"
	"chef/internal/obs"
	"chef/internal/solver"
)

// Isolated is one member of a multi-session driver (a portfolio member, a
// shard cell, a session of the experiment harness). Its options send its
// metrics to a child registry and its trace to a segment of the parent's
// tracer, so members running side by side neither contend nor interleave;
// the driver hands both back in member order.
type Isolated struct {
	Opts   Options
	parent *obs.Registry
	reg    *obs.Registry     // nil when parent is nil
	seg    obs.SegmentTracer // nil when the parent has no tracer
}

// Isolate derives the options of a member named name from the parent's
// opts: its own child registry when opts.Metrics is set, its own segment
// of opts.Tracer when that is set and, when spans is set, its own span
// profiler writing into both (opts.Spans is kept otherwise).
func Isolate(opts Options, name string, spans bool) Isolated {
	m := Isolated{Opts: opts, parent: opts.Metrics}
	m.Opts.Name = name
	if opts.Metrics != nil {
		m.reg = obs.NewRegistry()
		m.Opts.Metrics = m.reg
	}
	if opts.Tracer != nil {
		m.seg = obs.Segment(opts.Tracer)
		m.Opts.Tracer = m.seg
	}
	if spans { // a SpanProfiler serves one goroutine at a time
		m.Opts.Spans = obs.NewSpanProfiler(m.Opts.Metrics, obs.WithSession(m.Opts.Tracer, name))
	}
	return m
}

// commit appends the trace the member emitted since the last commit to the
// parent's tracer.
func (m Isolated) commit() {
	if m.seg != nil {
		m.seg.Commit()
	}
}

// Merge hands everything back: it commits the member's trace and folds its
// child registry into the parent's.
func (m Isolated) Merge() {
	m.commit()
	m.parent.Merge(m.reg) // a no-op when reg is nil
}

// sessionSet is the fan-out behind both ways of running several sessions
// side by side: the members of a portfolio and the range cells of a
// sharded session. It isolates each member once, and everything it hands
// back (the trace, the merged tests and registries, the folded counters)
// walks the members in index order, so none of it depends on which
// goroutine ran which member. The two differ only in how they schedule
// their members' exploration.
type sessionSet struct {
	sess    []*Session
	members []Isolated
	// tests are the merged test cases, filled by merge.
	tests []TestCase
}

// newSessionSet builds n sessions of opts. member(k) returns member k's
// name, its program and, for a shard cell, the router confining it to its
// range. Member k explores with seed opts.Seed + k*104729, isolated from
// the others (Isolate), with a span profiler when opts.Spans is set.
func newSessionSet(n int, opts Options, member func(k int) (string, TestProgram, lowlevel.Router)) *sessionSet {
	set := &sessionSet{sess: make([]*Session, n), members: make([]Isolated, n)}
	for k := range set.sess {
		name, prog, router := member(k)
		m := Isolate(opts, name, opts.Spans != nil)
		m.Opts.Seed = opts.Seed + int64(k)*104729
		m.Opts.router = router
		set.members[k] = m
		set.sess[k] = NewSession(prog, m.Opts)
	}
	return set
}

// commit appends the members' trace segments to the tracer in index order.
func (set *sessionSet) commit() {
	for _, m := range set.members {
		m.commit()
	}
}

// merge gathers the finished members' results in index order: tests dedup
// by high-level signature (the first member to find a path wins), and each
// member's trace and registry go back to the caller's (Isolated.Merge).
// fresh, when non-nil, receives the number of tests each member added.
func (set *sessionSet) merge(fresh []int) {
	seen := map[uint64]bool{}
	for k, s := range set.sess {
		before := len(set.tests)
		for _, tc := range s.tests {
			if !seen[tc.HLSig] {
				seen[tc.HLSig] = true
				set.tests = append(set.tests, tc)
			}
		}
		if fresh != nil {
			fresh[k] = len(set.tests) - before
		}
	}
	for _, m := range set.members {
		m.Merge()
	}
}

// Series returns the members' progress samples concatenated in index
// order.
func (set *sessionSet) Series() []SamplePoint {
	var out []SamplePoint
	for _, s := range set.sess {
		out = append(out, s.series...)
	}
	return out
}

// Clock returns the members' virtual time summed.
func (set *sessionSet) Clock() int64 {
	var total int64
	for _, s := range set.sess {
		total += s.eng.Clock()
	}
	return total
}

// Stats returns the members' engine counters folded in index order with
// Stats.Add.
func (set *sessionSet) Stats() lowlevel.Stats {
	var st lowlevel.Stats
	for _, s := range set.sess {
		st.Add(s.eng.Stats())
	}
	return st
}

// SolverStats returns the members' solver counters folded.
func (set *sessionSet) SolverStats() solver.Stats {
	var st solver.Stats
	for _, s := range set.sess {
		st.Add(s.eng.Solver().Stats())
	}
	return st
}

// CacheStats returns the counters of the members' private in-memory query
// caches folded.
func (set *sessionSet) CacheStats() solver.CacheStats {
	var st solver.CacheStats
	for _, s := range set.sess {
		st.Add(s.eng.Solver().Cache().Stats())
	}
	return st
}

// Summary returns the members' summaries folded with Summary.Add. Path
// counts are per-member sums; the merged tests are the deduplicated view.
func (set *sessionSet) Summary() Summary {
	var sum Summary
	for _, s := range set.sess {
		sum.Add(s.Summary())
	}
	return sum
}
