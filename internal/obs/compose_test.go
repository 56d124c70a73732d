package obs

import (
	"bytes"
	"sync"
	"testing"
)

// orderTracer records the order in which fanout members observe events.
type orderTracer struct {
	tag string
	out *[]string
}

func (o orderTracer) Emit(Event) { *o.out = append(*o.out, o.tag) }

func TestFanoutNilMembers(t *testing.T) {
	if Fanout() != nil {
		t.Error("Fanout() should be nil")
	}
	if Fanout(nil, nil) != nil {
		t.Error("Fanout of only nils should be nil")
	}
	var c Collect
	if Fanout(nil, &c) != Tracer(&c) {
		t.Error("Fanout with one live member should return it unwrapped")
	}
}

func TestFanoutForwardsToAllInOrder(t *testing.T) {
	var order []string
	f := Fanout(orderTracer{"a", &order}, nil, orderTracer{"b", &order})
	f.Emit(Event{Kind: KindRunEnd})
	f.Emit(Event{Kind: KindRunEnd})
	want := []string{"a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("fanout delivered %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

func TestWithSessionNestingOutermostWins(t *testing.T) {
	var c Collect
	tr := WithSession(WithSession(&c, "inner"), "outer")
	tr.Emit(Event{Kind: KindRunEnd})
	tr.Emit(Event{Kind: KindRunEnd, Session: "explicit"})
	evs := c.Events()
	if evs[0].Session != "outer" {
		t.Errorf("nested WithSession label = %q, want outer (outermost wrapper sets first)", evs[0].Session)
	}
	if evs[1].Session != "explicit" {
		t.Errorf("explicit session label overwritten: %q", evs[1].Session)
	}
}

func TestWithSessionAroundFanoutLabelsAllMembers(t *testing.T) {
	var a, b Collect
	tr := WithSession(Fanout(&a, &b), "s1")
	tr.Emit(Event{Kind: KindSpan, Layer: SpanChefSession})
	for name, c := range map[string]*Collect{"a": &a, "b": &b} {
		evs := c.Events()
		if len(evs) != 1 || evs[0].Session != "s1" {
			t.Errorf("member %s: events %+v, want one event labeled s1", name, evs)
		}
	}
}

func TestCollectConcurrentEmit(t *testing.T) {
	var c Collect
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		// Concurrent readers must not race with emitters (run with -race).
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.Events()
			c.CountKind(KindRunEnd)
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Emit(Event{Kind: KindRunEnd, T: int64(i)})
			}
		}()
	}
	wg.Wait()
	if got := c.CountKind(KindRunEnd); got != workers*perWorker {
		t.Errorf("collected %d events, want %d", got, workers*perWorker)
	}
}

// TestFanoutMembersGetOwnCopy: an edit one member makes to its event (the
// JSONL tracer's wall-clock stamp) is not seen by the members after it.
func TestFanoutMembersGetOwnCopy(t *testing.T) {
	var c Collect
	var sink bytes.Buffer
	f := Fanout(NewJSONL(&sink), &c)
	f.Emit(Event{Kind: KindRunEnd})
	if evs := c.Events(); len(evs) != 1 || evs[0].WallNs != 0 {
		t.Fatalf("Collect after a stamping JSONL saw %+v, want one unstamped event", evs)
	}
}
