package serve

import (
	"sync"

	"chef/internal/obs"
)

// traceChunk is the size of one traceBuffer chunk.
const traceChunk = 64 << 10

// traceBuffer is the per-job event sink behind GET /v1/jobs/{id}/events.
// Unlike obs.NewJSONL it is unbuffered, so events become readable as they are
// emitted, and readers follow it with a cursor. Events are not wall-clock
// stamped, and apart from the wall durations that span and solver-query
// events carry, which are observational, a job's trace depends only on its
// spec and seed.
//
// Events are stored as obs.AppendRecord records, about a sixth of their
// JSONL size, and rendered to JSONL when read. Records fill fixed-size
// chunks; a record that does not fit in the last chunk's room starts a new
// chunk, so appending never copies what is already stored and every record
// lies within one chunk. Emit encodes into a reused scratch slice, so it
// allocates only for a new chunk or a string it has not seen.
//
// A sharded job's cells emit into segments instead (see Segment), which
// take the lock only at commit and for a string the cell has not seen.
type traceBuffer struct {
	mu      sync.Mutex
	chunk   int // chunk size; traceChunk but in tests
	chunks  [][]byte
	strs    obs.StringTable
	scratch []byte
	done    bool
}

// traceCursor is a reader's position in a traceBuffer: a chunk index and a
// byte offset within that chunk. The zero cursor is the start of the trace.
type traceCursor struct{ chunk, off int }

func newTraceBuffer() *traceBuffer { return &traceBuffer{chunk: traceChunk} }

// Emit implements obs.Tracer.
func (t *traceBuffer) Emit(ev obs.Event) {
	t.mu.Lock()
	t.scratch = obs.AppendRecord(t.scratch[:0], &ev, &t.strs)
	c := t.tail(len(t.scratch))
	*c = append(*c, t.scratch...)
	t.mu.Unlock()
}

// tail returns the last chunk, first starting a new one when the last has
// less than n bytes of room. Callers hold t.mu.
func (t *traceBuffer) tail(n int) *[]byte {
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last])+n > cap(t.chunks[last]) {
		t.chunks = append(t.chunks, make([]byte, 0, max(t.chunk, n)))
		last++
	}
	return &t.chunks[last]
}

// Segment implements obs.Segmenter. The segment encodes records against
// the job's string table through a cache of its own, and its Commit
// appends them to the chunks exactly as Emit would have one by one.
func (t *traceBuffer) Segment() obs.SegmentTracer {
	return &traceSegment{t: t, strs: obs.NewStringCache(t.intern)}
}

// intern numbers s in the job's string table.
func (t *traceBuffer) intern(s string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.strs.Intern(s)
}

// traceSegment is one goroutine's segment of a traceBuffer.
type traceSegment struct {
	t    *traceBuffer
	strs obs.StringTable // cache in front of t.strs
	recs []byte          // records emitted since the last commit
	ends []int           // the end offset in recs of each record
}

// Emit implements obs.Tracer.
func (s *traceSegment) Emit(ev obs.Event) {
	s.recs = obs.AppendRecord(s.recs, &ev, &s.strs)
	s.ends = append(s.ends, len(s.recs))
}

// Commit implements obs.SegmentTracer: it copies the records into the
// chunks, as many whole records at a time as the last chunk has room for.
// Every string the records name is in the job's table already, so a reader
// that sees the records can decode them.
func (s *traceSegment) Commit() {
	if len(s.ends) == 0 {
		return
	}
	t := s.t
	t.mu.Lock()
	start, ends := 0, s.ends
	for len(ends) > 0 {
		c := t.tail(ends[0] - start)
		room, n := cap(*c)-len(*c), 1
		for n < len(ends) && ends[n]-start <= room {
			n++
		}
		*c = append(*c, s.recs[start:ends[n-1]]...)
		start, ends = ends[n-1], ends[n:]
	}
	t.mu.Unlock()
	s.recs, s.ends = s.recs[:0], s.ends[:0]
}

// finish marks the trace complete (no further events will arrive).
func (t *traceBuffer) finish() {
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
}

// readFrom renders the events at and after cur as JSONL, reporting the
// cursor after them and whether the trace is complete.
//
// Only the snapshot is taken under the lock; decoding runs outside it. That
// is safe because Emit and Commit only append: the headers of all chunks
// but the last are never written again, the last chunk's header is copied,
// and bytes and strings past the snapshot's lengths are not read.
func (t *traceBuffer) readFrom(cur traceCursor) (data []byte, next traceCursor, done bool) {
	t.mu.Lock()
	chunks := t.chunks
	var last []byte
	if n := len(chunks); n > 0 {
		last = chunks[n-1]
		chunks = chunks[:n-1]
	}
	strs := t.strs.Strings()
	done = t.done
	t.mu.Unlock()

	for i := cur.chunk; i <= len(chunks); i++ {
		c := last
		if i < len(chunks) {
			c = chunks[i]
		}
		if i == cur.chunk {
			c = c[cur.off:]
		}
		for len(c) > 0 {
			var ev obs.Event
			ev, c = obs.DecodeRecord(c, strs)
			data = append(obs.AppendJSON(data, &ev), '\n')
		}
	}
	return data, traceCursor{len(chunks), len(last)}, done
}
