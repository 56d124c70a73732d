package lowlevel

import (
	"testing"

	"chef/internal/obs"
)

// kindCounter counts events by kind and keeps nothing else.
type kindCounter struct{ forks, runEnds int }

func (c *kindCounter) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindLLFork:
		c.forks++
	case obs.KindRunEnd:
		c.runEnds++
	}
}

// TestTracingAddsNoAllocations: exploring a forking guest allocates as
// often with tracers attached as with none, since events pass by value.
// Building the engine is measured apart: with a tracer it allocates once
// more, for the solver's clock closure.
func TestTracingAddsNoAllocations(t *testing.T) {
	allocs := func(tr obs.Tracer, explore bool) float64 {
		return testing.AllocsPerRun(20, func() {
			e := NewEngine(nestedProg, NewDFSStrategy(), Options{Tracer: tr})
			if explore {
				exploreAll(e, 100)
			}
		})
	}
	// Wired as a served job wires its tracers: a session label around a
	// fan-out.
	counter := &kindCounter{}
	tr := obs.WithSession(obs.Fanout(counter, &kindCounter{}), "job")
	untraced := allocs(nil, true) - allocs(nil, false)
	traced := allocs(tr, true) - allocs(tr, false)
	if counter.forks == 0 || counter.runEnds == 0 {
		t.Fatalf("the guest emitted %d ll-fork and %d run-end events; the check needs both", counter.forks, counter.runEnds)
	}
	if traced != untraced {
		t.Fatalf("exploration allocated %.1f times with a tracer and %.1f without", traced, untraced)
	}
}
