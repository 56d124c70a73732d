package serve

import (
	"sync"

	"chef/internal/obs"
)

// traceChunk is the size of one traceBuffer chunk.
const traceChunk = 64 << 10

// traceBuffer is the per-job JSONL event sink behind GET /v1/jobs/{id}/events.
// Unlike obs.NewJSONL it is unbuffered, so events become readable as they are
// emitted, and it supports offset reads for incremental streaming. Events are
// not wall-clock stamped: a job's trace depends only on its spec and seed.
//
// The JSONL is stored in fixed traceChunk-sized chunks, every one full but
// the last, so appending never copies what is already stored; an event may
// span two chunks. Emit encodes with obs.AppendJSON into a reused scratch
// slice, so it does not allocate per event.
type traceBuffer struct {
	mu      sync.Mutex
	chunks  [][]byte
	size    int
	scratch []byte
	done    bool
}

func newTraceBuffer() *traceBuffer { return &traceBuffer{} }

// Emit implements obs.Tracer.
func (t *traceBuffer) Emit(ev *obs.Event) {
	t.mu.Lock()
	t.scratch = append(obs.AppendJSON(t.scratch[:0], ev), '\n')
	p := t.scratch
	t.size += len(p)
	for len(p) > 0 {
		last := len(t.chunks) - 1
		if last < 0 || len(t.chunks[last]) == traceChunk {
			t.chunks = append(t.chunks, make([]byte, 0, traceChunk))
			last++
		}
		c := t.chunks[last]
		n := min(len(p), traceChunk-len(c))
		t.chunks[last] = append(c, p[:n]...)
		p = p[n:]
	}
	t.mu.Unlock()
}

// finish marks the trace complete (no further events will arrive).
func (t *traceBuffer) finish() {
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
}

// readFrom copies the bytes at and after offset, reporting the new offset
// and whether the trace is complete.
func (t *traceBuffer) readFrom(offset int) (data []byte, next int, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if offset >= t.size {
		return nil, t.size, t.done
	}
	data = make([]byte, 0, t.size-offset)
	first := offset / traceChunk
	data = append(data, t.chunks[first][offset%traceChunk:]...)
	for _, c := range t.chunks[first+1:] {
		data = append(data, c...)
	}
	return data, t.size, t.done
}
