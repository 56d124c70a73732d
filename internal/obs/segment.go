package obs

// SegmentTracer is a tracer that one goroutine emits to without locking.
// What it holds reaches its parent tracer only at Commit, so several
// goroutines that each emit into their own segment of one tracer never
// contend on it, and the parent sees their events in commit order.
type SegmentTracer interface {
	Tracer
	// Commit appends the events emitted since the last Commit to the
	// parent tracer, in emission order, and empties the segment. The
	// segment keeps its buffers for the next events.
	Commit()
}

// Segmenter is implemented by a tracer with a native segment form.
type Segmenter interface {
	Segment() SegmentTracer
}

// Segment returns a new segment of t, nil when t is nil. A Segmenter gives
// its native form (JSONL, and a JSONL segment, encode and stamp wall_ns at
// emission; Fanout takes a segment of each member); any other tracer gets
// a segment that buffers events by value and emits them to t at Commit.
func Segment(t Tracer) SegmentTracer {
	switch t := t.(type) {
	case nil:
		return nil
	case Segmenter:
		return t.Segment()
	}
	return &eventSegment{parent: t}
}

// eventSegment buffers events by value.
type eventSegment struct {
	parent Tracer
	evs    []Event
}

// Emit implements Tracer.
func (s *eventSegment) Emit(ev Event) { s.evs = append(s.evs, ev) }

// Commit implements SegmentTracer.
func (s *eventSegment) Commit() {
	for i := range s.evs {
		s.parent.Emit(s.evs[i])
	}
	s.evs = s.evs[:0]
}

// Segment implements Segmenter: lines are encoded, and stamped, at
// emission; Commit writes them with one call under the tracer's lock.
func (t *JSONL) Segment() SegmentTracer { return &jsonlSegment{t: t} }

type jsonlSegment struct {
	t      *JSONL
	parent *jsonlSegment // nil: Commit writes to t
	buf    []byte        // lines emitted since the last commit
}

// Segment implements Segmenter: a segment of a segment commits its lines
// into the parent's.
func (s *jsonlSegment) Segment() SegmentTracer { return &jsonlSegment{t: s.t, parent: s} }

// Emit implements Tracer.
func (s *jsonlSegment) Emit(ev Event) {
	s.t.stamp(&ev)
	s.buf = append(AppendJSON(s.buf, &ev), '\n')
}

// Commit implements SegmentTracer.
func (s *jsonlSegment) Commit() {
	switch {
	case len(s.buf) == 0:
		return
	case s.parent != nil:
		s.parent.buf = append(s.parent.buf, s.buf...)
	default:
		s.t.mu.Lock()
		_, _ = s.t.bw.Write(s.buf)
		s.t.mu.Unlock()
	}
	s.buf = s.buf[:0]
}

// Segment implements Segmenter with one segment per member.
func (t fanoutTracer) Segment() SegmentTracer {
	segs := make(fanoutSegment, len(t.members))
	for i, m := range t.members {
		segs[i] = Segment(m)
	}
	return segs
}

type fanoutSegment []SegmentTracer

// Emit implements Tracer.
func (s fanoutSegment) Emit(ev Event) {
	for _, m := range s {
		m.Emit(ev)
	}
}

// Commit implements SegmentTracer.
func (s fanoutSegment) Commit() {
	for _, m := range s {
		m.Commit()
	}
}
