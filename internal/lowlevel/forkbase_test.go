package lowlevel

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"chef/internal/symexpr"
)

// TestSharedForkBasesAreNeverWritten pins the copy-on-write fork base: a
// state's base is the forking machine's own assignment, shared rather than
// copied, so it must still hold exactly the inputs the run had at the fork
// after every later run has finished. The guest declares inputs, forks,
// declares another input after the fork (the copy-before-write path), then
// forks again; OnFork records a clone of the machine's assignment at each
// fork.
func TestSharedForkBasesAreNeverWritten(t *testing.T) {
	var cur *Machine
	prog := func(m *Machine) {
		cur = m
		a := m.InputByte("in", 0, 0)
		b := m.InputByte("in", 1, 0)
		m.Branch(1, UltV(ConcreteVal(100, symexpr.W8), a))
		late := m.InputInt32("late", 0)
		m.Branch(2, UltV(ConcreteVal(100, symexpr.W8), b))
		m.Branch(3, EqV(late, ConcreteVal(5, symexpr.W32)))
		m.Branch(4, EqV(b, ConcreteVal(7, symexpr.W8)))
	}
	type fork struct {
		st   *State
		snap symexpr.Assignment
	}
	var forks []fork
	e := NewEngine(prog, NewRandomStrategy(rand.New(rand.NewSource(14))), Options{})
	e.OnFork = func(st *State) { forks = append(forks, fork{st, cur.assign.Clone()}) }
	exploreAll(e, 100)
	if len(forks) < 4 {
		t.Fatalf("forked %d states, want at least 4", len(forks))
	}
	bases := map[uintptr]bool{}
	for i, f := range forks {
		if !maps.Equal(f.st.base, f.snap) {
			t.Errorf("fork %d (LLPC %d): base %v, was %v at the fork", i, f.st.LLPC, f.st.base, f.snap)
		}
		bases[reflect.ValueOf(f.st.base).Pointer()] = true
	}
	// Forks of one run after the same input declaration share their base.
	if len(bases) >= len(forks) {
		t.Errorf("%d forks hold %d distinct base maps, want sharing", len(forks), len(bases))
	}
}

// TestConcreteMachineNeverWritesInput: a replay's machine records the
// inputs its run declares in a copy, never in the caller's assignment, so
// callers need not clone what they pass.
func TestConcreteMachineNeverWritesInput(t *testing.T) {
	a := symexpr.Var{Buf: "s", Idx: 0, W: symexpr.W8}
	b := symexpr.Var{Buf: "s", Idx: 1, W: symexpr.W8}
	for _, c := range []struct {
		in    symexpr.Assignment
		first uint64
	}{{nil, 'y'}, {symexpr.Assignment{a: 'x'}, 'x'}} {
		in := c.in
		before := in.Clone()
		m := NewConcreteMachine(in, 100)
		if got := m.InputBytes("s", 2, "yz"); got[0].C != c.first || got[1].C != 'z' {
			t.Errorf("input %v: bytes %v", before, got)
		}
		if len(in) != len(before) || in[a] != before[a] {
			t.Errorf("input %v was written: %v", before, in)
		}
		if m.Assignment()[b] != 'z' {
			t.Errorf("input %v: the machine's assignment %v lacks the declared default", before, m.Assignment())
		}
	}
}
