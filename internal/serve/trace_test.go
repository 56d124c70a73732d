package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
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

// TestShardedTraceSameAcrossShards: a sharded job traced straight into a
// traceBuffer, whose cells emit into segments of it, renders the same
// /events lines at 1, 2 and 4 epoch workers once the wall-clock fields are
// zeroed, and the same events, in the same order, as the job traced into
// an obs.Collect, whose cells buffer events by value.
func TestShardedTraceSameAcrossShards(t *testing.T) {
	// run executes the job at the given worker count with tracer and a
	// span profiler on it, as the server does.
	run := func(shards int, tracer obs.Tracer) {
		eo := ExecOptions{Tracer: tracer, Spans: obs.NewSpanProfiler(obs.NewRegistry(), tracer), Name: "det"}
		if _, err := Execute(context.Background(), shardSpec(quickSpec(3), shards), eo); err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
	}
	var want []obs.Event
	for _, shards := range []int{1, 2, 4} {
		buf := newTraceBuffer()
		run(shards, buf)
		buf.finish()
		data, _, _ := buf.readFrom(traceCursor{})
		evs, err := obs.ParseJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("shards %d: /events is not JSONL: %v", shards, err)
		}
		zeroWall(evs)
		if want == nil {
			want = evs
			continue
		}
		compareEvents(t, fmt.Sprintf("shards %d vs 1", shards), evs, want)
	}
	var collect obs.Collect
	run(2, &collect)
	evs := collect.Events()
	zeroWall(evs)
	compareEvents(t, "obs.Collect vs traceBuffer", evs, want)
}

// zeroWall zeroes the wall-clock fields of evs, which are observational.
func zeroWall(evs []obs.Event) {
	for i := range evs {
		evs[i].WallNs, evs[i].WallCost, evs[i].SelfWall = 0, 0, 0
	}
}

func compareEvents(t *testing.T, what string, got, want []obs.Event) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("%s: no events", what)
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs:\ngot  %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
}

// TestTraceSegmentCommitPacksLikeEmit: the records that two segments
// commit land in the chunks as Emit would place the same events one by
// one, for commits of many sizes, across chunk boundaries and for a record
// larger than a chunk, so the buffer holds the same bytes for them and
// renders the same /events.
func TestTraceSegmentCommitPacksLikeEmit(t *testing.T) {
	const chunk = 256
	segBuf, ref := &traceBuffer{chunk: chunk}, &traceBuffer{chunk: chunk}
	segs := []obs.SegmentTracer{segBuf.Segment(), segBuf.Segment()}
	big := traceMix[0]
	big.Sig = strings.Repeat("x", 2*chunk)
	var evs []obs.Event
	for range 5 {
		evs = append(evs, traceMix...)
	}
	evs = append(evs, big)
	i := 0
	for round := 1; round <= 12; round++ {
		for k, seg := range segs {
			var committed []obs.Event
			for range round * (k + 1) {
				ev := evs[i%len(evs)]
				i++
				seg.Emit(ev)
				committed = append(committed, ev)
			}
			seg.Commit()
			for _, ev := range committed {
				ref.Emit(ev)
			}
		}
	}
	if len(segBuf.chunks) != len(ref.chunks) {
		t.Fatalf("segments filled %d chunks, Emit %d", len(segBuf.chunks), len(ref.chunks))
	}
	for j := range ref.chunks {
		if !bytes.Equal(segBuf.chunks[j], ref.chunks[j]) || cap(segBuf.chunks[j]) != cap(ref.chunks[j]) {
			t.Fatalf("chunk %d: segments stored %d of %d bytes, Emit %d of %d, or other bytes",
				j, len(segBuf.chunks[j]), cap(segBuf.chunks[j]), len(ref.chunks[j]), cap(ref.chunks[j]))
		}
	}
	got, _, _ := segBuf.readFrom(traceCursor{})
	want, _, _ := ref.readFrom(traceCursor{})
	if !bytes.Equal(got, want) {
		t.Fatalf("segments render %d bytes of /events, differing from Emit's %d", len(got), len(want))
	}
}

// TestTraceSegmentEmitDoesNotAllocate: once a segment has seen the strings
// of its events, and its buffers have grown to an epoch's records, neither
// Emit nor a Commit within the last chunk allocates.
func TestTraceSegmentEmitDoesNotAllocate(t *testing.T) {
	buf := newTraceBuffer()
	seg := buf.Segment()
	epoch := func() {
		for range 50 {
			for _, ev := range traceMix {
				seg.Emit(ev)
			}
		}
		seg.Commit()
	}
	// The first epoch, which AllocsPerRun runs before it counts, sees the
	// strings and grows the buffers; the counted one counts exactly.
	allocs := testing.AllocsPerRun(1, epoch)
	if len(buf.chunks) != 1 {
		t.Fatalf("the events filled %d chunks; the check needs them in one", len(buf.chunks))
	}
	if allocs != 0 {
		t.Fatalf("an epoch of %d events through a segment allocated %.0f times, want 0", 50*len(traceMix), allocs)
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

// commitEvents is how many events a benchmark producer emits into its
// segment between commits, about a shard cell's share of an epoch.
const commitEvents = 256

// BenchmarkTraceEmit times emitting traceMix into a job's buffer, per
// event, starting a fresh buffer every jobEvents events as a new job would.
// It reports the bytes allocated and the chunk bytes retained per event.
// "emit" is one producer calling traceBuffer.Emit, as a plain job's session
// does; "segments-2" is two goroutines, as the cells of a 2-worker sharded
// job, each emitting into its own segment of the buffer and committing
// every commitEvents events.
func BenchmarkTraceEmit(b *testing.B) {
	b.Run("emit", func(b *testing.B) { benchTraceEmit(b, 0) })
	b.Run("segments-2", func(b *testing.B) { benchTraceEmit(b, 2) })
}

// benchTraceEmit emits b.N events through the buffer's Emit when producers
// is 0, else split across that many goroutines with a segment each.
func benchTraceEmit(b *testing.B, producers int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	retained := 0
	for done := 0; done < b.N; done += jobEvents {
		n := min(jobEvents, b.N-done)
		buf := newTraceBuffer()
		if producers == 0 {
			for i := 0; i < n; i++ {
				buf.Emit(traceMix[i%len(traceMix)])
			}
		} else {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					seg := buf.Segment()
					for i := p; i < n; i += producers {
						seg.Emit(traceMix[i%len(traceMix)])
						if (i/producers+1)%commitEvents == 0 {
							seg.Commit()
						}
					}
					seg.Commit()
				}()
			}
			wg.Wait()
		}
		retained += buf.retained()
	}
	b.StopTimer()
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
