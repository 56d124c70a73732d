package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0}, // zero lands in the non-positive bucket
		{1, 1}, // [1,1]
		{2, 2}, // [2,3]
		{3, 2},
		{4, 3}, // [4,7]
		{(1 << (HistBuckets - 2)) - 1, HistBuckets - 2}, // last finite bucket's top
		{1 << (HistBuckets - 2), HistBuckets - 1},       // first overflow value
		{math.MaxInt64, HistBuckets - 1},                // overflow bucket
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBoundsConsistent(t *testing.T) {
	for i := 0; i < HistBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if BucketOf(int64(lo)) != i {
			t.Errorf("bucket %d: BucketOf(lo=%d) = %d", i, lo, BucketOf(int64(lo)))
		}
		if hi <= math.MaxInt64 && BucketOf(int64(hi)) != i {
			t.Errorf("bucket %d: BucketOf(hi=%d) = %d", i, hi, BucketOf(int64(hi)))
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-7)
	h.Observe(5)
	h.Observe(math.MaxInt64)
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if h.Max() != math.MaxInt64 {
		t.Errorf("Max = %d, want MaxInt64", h.Max())
	}
	if h.Bucket(0) != 2 {
		t.Errorf("bucket 0 = %d, want 2 (zero and negative)", h.Bucket(0))
	}
	if h.Bucket(BucketOf(5)) != 1 {
		t.Errorf("bucket for 5 = %d, want 1", h.Bucket(BucketOf(5)))
	}
	if h.Bucket(HistBuckets-1) != 1 {
		t.Errorf("overflow bucket = %d, want 1", h.Bucket(HistBuckets-1))
	}
	if h.Bucket(-1) != 0 || h.Bucket(HistBuckets) != 0 {
		t.Error("out-of-range Bucket() should return 0")
	}

	// Sum covers only positive observations.
	var hs Histogram
	hs.Observe(-3)
	hs.Observe(0)
	hs.Observe(4)
	hs.Observe(6)
	if hs.Sum() != 10 {
		t.Errorf("Sum = %d, want 10 (positive observations only)", hs.Sum())
	}
}

func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c := reg.Counter("c")
			v := reg.CounterVec("vec")
			h := reg.Histogram("h")
			g := reg.Gauge("g")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				v.At(uint64(i % 4)).Inc()
				h.Observe(int64(i))
				g.Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	var vecTotal int64
	for _, n := range reg.CounterVec("vec").Snapshot() {
		vecTotal += n
	}
	if vecTotal != workers*perWorker {
		t.Errorf("vec total = %d, want %d", vecTotal, workers*perWorker)
	}
	if got := reg.Histogram("h").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestRegistryMerge(t *testing.T) {
	parent, child := NewRegistry(), NewRegistry()
	parent.Counter("c").Add(2)
	child.Counter("c").Add(3)
	child.Counter("only-child").Add(1)
	parent.Gauge("g").Set(10)
	child.Gauge("g").Set(4)
	child.Histogram("h").Observe(7)
	parent.Histogram("h").Observe(100)
	child.CounterVec("v").At(0x42).Add(5)
	parent.Merge(child)
	parent.Merge(nil) // no-op

	if got := parent.Counter("c").Value(); got != 5 {
		t.Errorf("merged counter = %d, want 5", got)
	}
	if got := parent.Counter("only-child").Value(); got != 1 {
		t.Errorf("child-only counter = %d, want 1", got)
	}
	if got := parent.Gauge("g").Value(); got != 14 {
		t.Errorf("merged gauge = %d, want 14 (sum over children)", got)
	}
	h := parent.Histogram("h")
	if h.Count() != 2 || h.Sum() != 107 || h.Max() != 100 {
		t.Errorf("merged histogram count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if got := parent.CounterVec("v").At(0x42).Value(); got != 5 {
		t.Errorf("merged vec = %d, want 5", got)
	}
}

func TestHitRate(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.HitRate(MSolverCacheHits, MSolverCacheMisses); ok {
		t.Error("empty registry should report no hit rate")
	}
	reg.Counter(MSolverCacheHits).Add(3)
	reg.Counter(MSolverCacheMisses).Add(1)
	rate, ok := reg.HitRate(MSolverCacheHits, MSolverCacheMisses)
	if !ok || rate != 0.75 {
		t.Errorf("hit rate = %v, %v; want 0.75, true", rate, ok)
	}
}

func TestWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MSolverQueries).Add(4)
	reg.Counter(MSolverCacheHits).Add(3)
	reg.Counter(MSolverCacheMisses).Add(1)
	reg.Gauge(MStatesPending).Set(2)
	reg.Histogram(MSolverQueryVirt).Observe(9)
	reg.CounterVec(MForksByLLPC).At(0x10).Add(7)
	var buf bytes.Buffer
	reg.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"solver.queries", "engine.states.pending", "solver.query.virt",
		"engine.forks.by_llpc", "0x10", "solver.cache.hit_rate", "75.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.DisableWallClock()
	events := []Event{
		{T: 1, Kind: KindLLFork, LLPC: 0x40, Decision: "flip-taken", Depth: 2},
		{T: 5, Kind: KindSolverQuery, Result: "sat", VirtCost: 12, CacheHit: true},
		{T: 9, Kind: KindTestCase, HLLen: 3, Sig: "00000000000000ab"},
	}
	for _, ev := range events {
		tr.Emit(ev)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d round trip mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
	if strings.Contains(buf.String(), "wall_ns") {
		t.Error("DisableWallClock trace still contains wall_ns")
	}
}

func TestJSONLWallStamping(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Emit(Event{T: 1, Kind: KindRunEnd})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil || len(got) != 1 {
		t.Fatalf("parse: %v, %d events", err, len(got))
	}
	if got[0].WallNs <= 0 {
		t.Errorf("wall stamping enabled but WallNs = %d", got[0].WallNs)
	}
}

func TestWithSession(t *testing.T) {
	if WithSession(nil, "x") != nil {
		t.Error("WithSession(nil) should stay nil")
	}
	var c Collect
	if WithSession(&c, "") != Tracer(&c) {
		t.Error("WithSession with empty name should return tracer unchanged")
	}
	tr := WithSession(&c, "alpha")
	tr.Emit(Event{Kind: KindRunEnd})
	tr.Emit(Event{Kind: KindRunEnd, Session: "explicit"})
	evs := c.Events()
	if evs[0].Session != "alpha" {
		t.Errorf("session label = %q, want alpha", evs[0].Session)
	}
	if evs[1].Session != "explicit" {
		t.Errorf("explicit session overwritten: %q", evs[1].Session)
	}
	if c.CountKind(KindRunEnd) != 2 {
		t.Errorf("CountKind = %d, want 2", c.CountKind(KindRunEnd))
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(1)
	reg.Histogram("h").Observe(3)
	data, err := reg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"counters"`, `"a":1`, `"histograms"`, `"buckets"`} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot JSON missing %q: %s", want, s)
		}
	}
}
