package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"chef/internal/obs"
)

// refTracer feeds each event to a traceBuffer and, under the same lock, to a
// json.Marshal reference, so both see the shards' interleaving in one order.
type refTracer struct {
	mu  sync.Mutex
	buf *traceBuffer
	ref bytes.Buffer
}

func (r *refTracer) Emit(ev *obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf.Emit(ev)
	data, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	r.ref.Write(data)
	r.ref.WriteByte('\n')
}

// TestTraceBufferMatchesMarshal: a served job's /events bytes equal a
// per-event json.Marshal of the same events, for a plain and a sharded job
// whose session name needs escaping, and offset reads across chunk
// boundaries return the matching suffix.
func TestTraceBufferMatchesMarshal(t *testing.T) {
	for _, shards := range []int{0, 2} {
		tr := &refTracer{buf: newTraceBuffer()}
		eo := ExecOptions{
			Tracer: tr,
			Spans:  obs.NewSpanProfiler(obs.NewRegistry(), tr),
			Name:   "ten<&>\"é/x \x01",
		}
		if _, err := Execute(context.Background(), shardSpec(quickSpec(7), shards), eo); err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		tr.buf.finish()
		want := tr.ref.Bytes()
		size := len(want)
		if size <= 2*traceChunk+1 {
			t.Fatalf("shards %d: trace is %d bytes, too short to cross two chunks", shards, size)
		}
		for _, off := range []int{0, traceChunk - 1, traceChunk, traceChunk + 1, 2 * traceChunk, size, size + 5} {
			got, next, done := tr.buf.readFrom(off)
			if !bytes.Equal(got, want[min(off, size):]) {
				t.Fatalf("shards %d: readFrom(%d) returned %d bytes, differing from the %d-byte reference suffix",
					shards, off, len(got), size-min(off, size))
			}
			if next != size || !done {
				t.Fatalf("shards %d: readFrom(%d) = next %d done %v, want %d true", shards, off, next, done, size)
			}
		}
	}
}

// traceMix is a fixed sample of the events a served job emits most: LL
// forks and HL edges, then spans and solver queries.
var traceMix = []obs.Event{
	{T: 123456, Kind: obs.KindLLFork, Session: "default/job-12", LLPC: 4194321, HLPC: 281474976710917,
		DynHLPC: 281474976710917, Opcode: 83, Decision: "flip-taken", Depth: 17},
	{T: 123999, Kind: obs.KindHLEdge, Session: "default/job-12", From: 281474976710917,
		HLPC: 281474976710925, Opcode: 100},
	{T: 124500, Kind: obs.KindLLFork, Session: "default/job-12", LLPC: 4194400, HLPC: 281474976710925,
		DynHLPC: 281474976710931, Opcode: 107, Decision: "exclude", Depth: 18},
	{T: 125000, Kind: obs.KindHLEdge, Session: "default/job-12", From: 281474976710925,
		HLPC: 281474976710940, Opcode: 114},
	{Kind: obs.KindSpan, Session: "default/job-12", Layer: "solver.check", Parent: "engine.run",
		VirtCost: 812, SelfVirt: 412, WallCost: 48213, SelfWall: 21877},
	{T: 126000, Kind: obs.KindSolverQuery, Session: "default/job-12", Result: "sat", VirtCost: 400,
		WallCost: 20311, CacheHit: true, Constraints: 9, PathSig: 0x9e3779b97f4a7c15},
}

// BenchmarkTraceEmit times traceBuffer.Emit per event over traceMix,
// starting a fresh buffer every 4 MB as a new job would.
func BenchmarkTraceEmit(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	buf := newTraceBuffer()
	for i := 0; i < b.N; i++ {
		if buf.size >= 4<<20 {
			buf = newTraceBuffer()
		}
		ev := traceMix[i%len(traceMix)]
		buf.Emit(&ev)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/event")
}
