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

// refTracer feeds each event to its traceBuffers and, under the same lock,
// to a json.Marshal reference, so all see the shards' interleaving in one
// order.
type refTracer struct {
	mu   sync.Mutex
	bufs []*traceBuffer
	ref  bytes.Buffer
}

func (r *refTracer) Emit(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bufs {
		b.Emit(ev)
	}
	data, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	r.ref.Write(data)
	r.ref.WriteByte('\n')
}

// TestTraceBufferMatchesMarshal: a served job's /events bytes equal a
// per-event json.Marshal of the same events, for a plain and a sharded job
// whose session name needs escaping. It checks a buffer at the served chunk
// size and one with 1 KB chunks, so records straddle many chunk boundaries,
// read whole after the job and by a reader that polls while it runs.
func TestTraceBufferMatchesMarshal(t *testing.T) {
	for _, shards := range []int{0, 2} {
		served, small := newTraceBuffer(), &traceBuffer{chunk: 1 << 10}
		tr := &refTracer{bufs: []*traceBuffer{served, small}}
		eo := ExecOptions{
			Tracer: tr,
			Spans:  obs.NewSpanProfiler(obs.NewRegistry(), tr),
			Name:   "ten<&>\"é/x \x01",
		}
		polled := make(chan []byte)
		go func() {
			var out []byte
			var cur traceCursor
			for {
				data, next, done := small.readFrom(cur)
				out, cur = append(out, data...), next
				if done {
					polled <- out
					return
				}
				runtime.Gosched()
			}
		}()
		_, err := Execute(context.Background(), shardSpec(quickSpec(7), shards), eo)
		served.finish()
		small.finish()
		got := <-polled
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		want := tr.ref.Bytes()
		if len(small.chunks) < 3 {
			t.Fatalf("shards %d: trace fills %d 1 KB chunks, too few to cross two boundaries", shards, len(small.chunks))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shards %d: polling reader got %d bytes, differing from the %d-byte reference", shards, len(got), len(want))
		}
		for _, buf := range []*traceBuffer{served, small} {
			all, end, done := buf.readFrom(traceCursor{})
			if !bytes.Equal(all, want) || !done {
				t.Fatalf("shards %d, %d-byte chunks: readFrom(start) returned %d bytes (done %v), differing from the %d-byte reference",
					shards, buf.chunk, len(all), done, len(want))
			}
			if rest, next, done := buf.readFrom(end); len(rest) != 0 || next != end || !done {
				t.Fatalf("shards %d, %d-byte chunks: readFrom(end) = %d bytes, next %v, done %v; want none, %v, true",
					shards, buf.chunk, len(rest), next, done, end)
			}
		}
	}
}

// TestTraceEmitDoesNotAllocate: once a buffer has seen the strings of its
// events, Emit allocates nothing until a chunk fills.
func TestTraceEmitDoesNotAllocate(t *testing.T) {
	buf := newTraceBuffer()
	for _, ev := range traceMix {
		buf.Emit(ev)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf.Emit(traceMix[i%len(traceMix)])
		i++
	})
	if len(buf.chunks) != 1 {
		t.Fatalf("the events filled %d chunks; the check needs them in one", len(buf.chunks))
	}
	if allocs != 0 {
		t.Fatalf("traceBuffer.Emit allocated %.1f times per event within a chunk, want 0", allocs)
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

// jobEvents approximates the events of one served job at serve-warm's spec
// (about 1.6 MB of JSONL at about 110 bytes an event).
const jobEvents = 16 << 10

// retained is the memory a buffer holds for its records.
func (t *traceBuffer) retained() int {
	n := 0
	for _, c := range t.chunks {
		n += cap(c)
	}
	return n
}

// BenchmarkTraceEmit times traceBuffer.Emit per event over traceMix,
// starting a fresh buffer every jobEvents events as a new job would. It
// reports the bytes allocated and the chunk bytes retained per event.
func BenchmarkTraceEmit(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	buf, retained := newTraceBuffer(), 0
	for i := 0; i < b.N; i++ {
		if i%jobEvents == 0 {
			retained += buf.retained()
			buf = newTraceBuffer()
		}
		buf.Emit(traceMix[i%len(traceMix)])
	}
	b.StopTimer()
	retained += buf.retained()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/event")
	b.ReportMetric(float64(retained)/float64(b.N), "retained-B/event")
}

// BenchmarkTraceRead times rendering one job's worth of traceMix records
// back to JSONL, as GET /v1/jobs/{id}/events does.
func BenchmarkTraceRead(b *testing.B) {
	buf := newTraceBuffer()
	for i := 0; i < jobEvents; i++ {
		buf.Emit(traceMix[i%len(traceMix)])
	}
	buf.finish()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		data, _, _ := buf.readFrom(traceCursor{})
		n = len(data)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobEvents), "ns/event")
	b.ReportMetric(float64(n)/jobEvents, "jsonl-B/event")
	b.ReportMetric(float64(buf.retained())/jobEvents, "retained-B/event")
}
