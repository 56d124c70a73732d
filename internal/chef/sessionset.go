package chef

import (
	"chef/internal/lowlevel"
	"chef/internal/obs"
	"chef/internal/solver"
)

// sessionSet is the fan-out behind both ways of running several sessions
// side by side: the members of a portfolio and the range cells of a
// sharded session. It derives each member's options once, and everything
// it hands back (the trace, the merged tests and registries, the folded
// counters) walks the members in index order, so none of it depends on
// which goroutine ran which member. The two differ only in how they
// schedule their members' exploration.
type sessionSet struct {
	opts Options
	sess []*Session
	// regs holds each member's child registry, nil when opts.Metrics is.
	regs []*obs.Registry
	// segs holds each member's trace segment, nil when opts.Tracer is.
	segs []obs.SegmentTracer
	// tests are the merged test cases, filled by merge.
	tests []TestCase
}

// newSessionSet builds n sessions of opts. member(k) returns member k's
// name, its program and, for a shard cell, the router confining it to its
// range. Member k explores with seed opts.Seed + k*104729, its own child
// registry, its own segment of the tracer and its own span profiler.
func newSessionSet(n int, opts Options, member func(k int) (string, TestProgram, lowlevel.Router)) *sessionSet {
	set := &sessionSet{opts: opts, sess: make([]*Session, n)}
	if opts.Metrics != nil {
		set.regs = make([]*obs.Registry, n)
	}
	if opts.Tracer != nil {
		set.segs = make([]obs.SegmentTracer, n)
	}
	for k := range set.sess {
		name, prog, router := member(k)
		o := opts
		o.Seed = opts.Seed + int64(k)*104729
		o.Name = name
		o.router = router
		if set.regs != nil {
			set.regs[k] = obs.NewRegistry()
			o.Metrics = set.regs[k]
		}
		if set.segs != nil {
			set.segs[k] = obs.Segment(opts.Tracer)
			o.Tracer = set.segs[k]
		}
		if opts.Spans != nil {
			// A SpanProfiler serves one goroutine at a time: the caller's
			// instance only asks for spans, and each member gets its own.
			o.Spans = obs.NewSpanProfiler(o.Metrics, obs.WithSession(o.Tracer, o.Name))
		}
		set.sess[k] = NewSession(prog, o)
	}
	return set
}

// commit appends the members' trace segments to the tracer in index order.
func (set *sessionSet) commit() {
	for _, seg := range set.segs {
		seg.Commit()
	}
}

// merge gathers the finished members' results in index order: tests dedup
// by high-level signature (the first member to find a path wins) and the
// child registries fold into the caller's. fresh, when non-nil, receives
// the number of tests each member added.
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
	for _, reg := range set.regs {
		set.opts.Metrics.Merge(reg)
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
