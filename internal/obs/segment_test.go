package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestSegmentsCommitInCommitOrder: whatever a segment's parent is, the
// events reach it only at Commit, a segment's events in emission order
// and segments in commit order, and a committed segment starts empty.
func TestSegmentsCommitInCommitOrder(t *testing.T) {
	var jsonlOut bytes.Buffer
	jsonl := NewJSONL(&jsonlOut)
	jsonl.DisableWallClock()
	var plain, fanned Collect
	parents := map[string]Tracer{
		"jsonl":  jsonl,
		"other":  &plain,
		"fanout": Fanout(&fanned, orderTracer{"x", new([]string)}),
	}
	ev := func(seg int, i int64) Event {
		return Event{T: i, Kind: KindRunEnd, Session: []string{"a", "b"}[seg]}
	}
	for name, parent := range parents {
		segs := []SegmentTracer{Segment(parent), Segment(parent)}
		for i := int64(1); i <= 3; i++ {
			segs[1].Emit(ev(1, i))
			segs[0].Emit(ev(0, i))
		}
		if name == "other" && len(plain.Events()) != 0 {
			t.Fatalf("%s: events reached the parent before Commit", name)
		}
		segs[0].Commit()
		segs[1].Commit()
		segs[1].Commit() // empty: adds nothing
		segs[0].Emit(ev(0, 4))
		segs[0].Commit()
	}
	var want []Event
	for seg := 0; seg < 2; seg++ {
		for i := int64(1); i <= 3; i++ {
			want = append(want, ev(seg, i))
		}
	}
	want = append(want, ev(0, 4))
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	gotJSONL, err := ParseJSONL(&jsonlOut)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]Event{"jsonl": gotJSONL, "other": plain.Events(), "fanout": fanned.Events()} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	if Segment(nil) != nil {
		t.Fatal("Segment(nil) is not nil")
	}
}

// TestSegmentOfSegment: a segment of a segment commits into its parent
// segment, so its events reach the tracer only when the parent commits,
// after the events the parent held and before those it gets later.
func TestSegmentOfSegment(t *testing.T) {
	var jsonlOut bytes.Buffer
	jsonl := NewJSONL(&jsonlOut)
	jsonl.DisableWallClock()
	var a, b Collect
	for _, parent := range []Tracer{jsonl, Fanout(&a, &b)} {
		outer := Segment(parent)
		inner := Segment(outer)
		outer.Emit(Event{T: 1})
		inner.Emit(Event{T: 2})
		inner.Commit()
		outer.Emit(Event{T: 3})
		if len(a.Events()) != 0 {
			t.Fatal("an inner commit reached the tracer")
		}
		outer.Commit()
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	gotJSONL, err := ParseJSONL(&jsonlOut)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]Event{"jsonl": gotJSONL, "fanout a": a.Events(), "fanout b": b.Events()} {
		if len(got) != 3 || got[0].T != 1 || got[1].T != 2 || got[2].T != 3 {
			t.Fatalf("%s: got %+v, want events 1, 2, 3", name, got)
		}
	}
}

// TestJSONLSegmentStampsAtEmission: a JSONL segment, or a segment of one,
// stamps wall_ns when an event is emitted, not when the segment commits.
func TestJSONLSegmentStampsAtEmission(t *testing.T) {
	const wait = 3 * time.Millisecond
	for _, nested := range []bool{false, true} {
		var out bytes.Buffer
		jsonl := NewJSONL(&out)
		segs := []SegmentTracer{Segment(jsonl)}
		if nested {
			segs = append([]SegmentTracer{Segment(segs[0])}, segs...)
		}
		segs[0].Emit(Event{Kind: KindRunEnd})
		time.Sleep(wait)
		for _, seg := range segs {
			seg.Commit()
		}
		jsonl.Emit(Event{Kind: KindRunEnd})
		if err := jsonl.Close(); err != nil {
			t.Fatal(err)
		}
		evs, err := ParseJSONL(&out)
		if err != nil || len(evs) != 2 {
			t.Fatalf("nested=%v: parsed %d events (err %v), want 2", nested, len(evs), err)
		}
		if evs[0].WallNs <= 0 || evs[1].WallNs-evs[0].WallNs < wait.Nanoseconds() {
			t.Fatalf("nested=%v: wall_ns %d then %d: want the segment's event stamped at least %v before the direct one, which follows its commit",
				nested, evs[0].WallNs, evs[1].WallNs, wait)
		}
	}
}

// TestStringCacheNumbersThroughSharedTable: records encoded against a
// cache carry the shared table's numbers, so they decode with its Strings,
// and the cache asks the shared table once per distinct string.
func TestStringCacheNumbersThroughSharedTable(t *testing.T) {
	var shared StringTable
	shared.Intern("taken-first")
	asks := 0
	cache := NewStringCache(func(s string) uint64 { asks++; return shared.Intern(s) })
	evs := []Event{
		{Kind: KindLLFork, Session: "job.s01", Decision: "flip-taken"},
		{Kind: KindLLFork, Session: "job.s01", Decision: "exclude"},
		{Kind: KindHLEdge, Session: "job.s01", Layer: "taken-first"},
		{Kind: KindLLFork, Session: "job.s01", Decision: "flip-taken"},
	}
	var recs []byte
	for i := range evs {
		recs = AppendRecord(recs, &evs[i], &cache)
	}
	if asks != 6 {
		t.Fatalf("the cache asked the shared table %d times, want 6 (one per distinct string)", asks)
	}
	if len(cache.Strings()) != 0 {
		t.Fatalf("the cache holds strings %v of its own", cache.Strings())
	}
	for i := range evs {
		var got Event
		got, recs = DecodeRecord(recs, shared.Strings())
		if got != evs[i] {
			t.Fatalf("record %d decoded to %+v, want %+v", i, got, evs[i])
		}
	}
}
