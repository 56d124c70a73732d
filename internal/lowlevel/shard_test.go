package lowlevel

import (
	"testing"

	"chef/internal/symexpr"
)

// recordingRouter owns only signatures below the split point and records
// everything routed away.
type recordingRouter struct {
	split     uint64
	handedOff []*State
	visited   []uint64
}

func (r *recordingRouter) Owns(sig uint64) bool   { return sig < r.split }
func (r *recordingRouter) HandOff(st *State)      { r.handedOff = append(r.handedOff, st) }
func (r *recordingRouter) NoteVisited(sig uint64) { r.visited = append(r.visited, sig) }

// nestedProg forks at three nested branch sites, producing a spread of
// decision signatures on both sides of any split point.
func nestedProg(m *Machine) {
	x := m.InputByte("x", 0, 0)
	y := m.InputByte("y", 1, 0)
	if m.Branch(1, UltV(ConcreteVal(10, symexpr.W8), x)) {
		m.Branch(2, UltV(ConcreteVal(20, symexpr.W8), y))
	} else {
		m.Branch(3, EqV(y, ConcreteVal(7, symexpr.W8)))
	}
}

// TestRouterSplitsWork: with a router owning half the signature space,
// every registered alternate either lands in the local queue (owned) or
// in the router (foreign), never both; trail marks route the same way;
// and Stats.HandedOff counts exactly the routed states.
func TestRouterSplitsWork(t *testing.T) {
	router := &recordingRouter{split: 1 << 63}
	e := NewEngine(nestedProg, NewDFSStrategy(), Options{Router: router})
	e.RunInitial()
	for {
		info, more := e.SelectAndRun()
		if !more {
			break
		}
		_ = info
	}
	st := e.Stats()
	if st.HandedOff != int64(len(router.handedOff)) {
		t.Fatalf("HandedOff=%d but router received %d", st.HandedOff, len(router.handedOff))
	}
	if st.Forks == st.HandedOff {
		t.Fatal("every fork was routed away; split point not exercised on both sides")
	}
	if len(router.handedOff) == 0 {
		t.Fatal("no fork crossed the split; the routing path is untested")
	}
	for _, s := range router.handedOff {
		if router.Owns(s.Sig) {
			t.Fatalf("handed-off state %x is locally owned", s.Sig)
		}
	}
	for _, sig := range router.visited {
		if router.Owns(sig) {
			t.Fatalf("routed trail note %x is locally owned", sig)
		}
	}
}

// TestInjectStateDedups: injecting the same signature twice queues once
// and counts a duplicate, mirroring the local-fork dedup.
func TestInjectStateDedups(t *testing.T) {
	e := NewEngine(nestedProg, NewDFSStrategy(), Options{})
	st := &State{Sig: 0xdead, pc: &pcNode{}, base: symexpr.Assignment{}}
	if !e.InjectState(st) {
		t.Fatal("first injection must queue")
	}
	if e.InjectState(st) {
		t.Fatal("second injection must dedup")
	}
	if got := e.Stats().DupStates; got != 1 {
		t.Fatalf("DupStates = %d, want 1", got)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// A pre-noted trail signature suppresses a later state injection.
	e.InjectVisited(0xbeef)
	if e.InjectState(&State{Sig: 0xbeef, pc: &pcNode{}, base: symexpr.Assignment{}}) {
		t.Fatal("injection after a visited note must dedup")
	}
}

// TestRouterlessEngineUnchanged: without a router every fork stays local
// and HandedOff stays zero — the sharding hooks are inert by default.
func TestRouterlessEngineUnchanged(t *testing.T) {
	e := NewEngine(nestedProg, NewDFSStrategy(), Options{})
	e.RunInitial()
	for {
		if _, more := e.SelectAndRun(); !more {
			break
		}
	}
	if st := e.Stats(); st.HandedOff != 0 {
		t.Fatalf("HandedOff = %d without a router", st.HandedOff)
	}
}
