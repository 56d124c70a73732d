package lowlevel

import (
	"math/rand"
	"testing"

	"chef/internal/symexpr"
)

// PathCondition materializes the current path condition.
func (m *Machine) PathCondition() []*symexpr.Expr { return m.pc.slice() }

// PathCondition materializes the state's path condition.
func (s *State) PathCondition() []*symexpr.Expr { return s.pc.slice() }

// PathDepth returns the number of symbolic decisions taken so far.
func (m *Machine) PathDepth() int { return m.nDecisions }

// TestConcolicInvariant checks the engine's central invariant: for every
// concolic operation, evaluating the symbolic expression under the input
// assignment yields exactly the concrete value the operation computed. A
// violation here is precisely the class of bug that made int()'s original
// sign handling unsound.
func TestConcolicInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	env := symexpr.Assignment{}
	mkSym := func(w symexpr.Width, idx int) SVal {
		v := symexpr.Var{Buf: "z", Idx: idx, W: w}
		c := r.Uint64() & w.Mask()
		env[v] = c
		return SVal{C: c, E: symexpr.NewVar(v), W: w}
	}
	check := func(name string, v SVal) {
		t.Helper()
		if !v.IsSymbolic() {
			return
		}
		if got := symexpr.Eval(v.E, env); got != v.C {
			t.Fatalf("%s: concrete %d but Eval(E) = %d", name, v.C, got)
		}
	}
	binOps := map[string]func(a, b SVal) SVal{
		"add": AddV, "sub": SubV, "mul": MulV, "udiv": UDivV, "urem": URemV,
		"and": AndV, "or": OrV, "xor": XorV, "lshr": LShrV,
		"eq": EqV, "ne": NeV, "ult": UltV, "ule": UleV, "slt": SltV, "sle": SleV,
	}
	widths := []symexpr.Width{symexpr.W8, symexpr.W32, symexpr.W64}
	for trial := 0; trial < 300; trial++ {
		w := widths[r.Intn(len(widths))]
		a := mkSym(w, 2*trial)
		b := mkSym(w, 2*trial+1)
		if r.Intn(3) == 0 {
			b = ConcreteVal(r.Uint64()&w.Mask(), w)
		}
		for name, op := range binOps {
			check(name, op(a, b))
		}
		check("not", NotV(a))
		check("neg", NegV(a))
		check("zext", ZExtV(a, symexpr.W64))
		check("sext", SExtV(a, symexpr.W64))
		check("trunc", TruncV(a, symexpr.W8))
		b1 := EqV(a, b)
		b2 := NeV(a, b)
		check("booland", BoolAndV(b1, b2))
		check("boolor", BoolOrV(b1, b2))
	}
}

func TestSValAccessors(t *testing.T) {
	v := ConcreteVal(0xFFFF_FFFF_FFFF_FFFB, symexpr.W64) // -5
	if v.Int() != -5 {
		t.Errorf("Int() = %d, want -5", v.Int())
	}
	if ConcreteBool(true).C != 1 || ConcreteBool(false).C != 0 {
		t.Error("ConcreteBool values wrong")
	}
	if !ConcreteBool(true).Bool() || ConcreteBool(false).Bool() {
		t.Error("Bool() wrong")
	}
	if v.String() == "" {
		t.Error("String() empty")
	}
	sym := SVal{C: 3, E: symexpr.NewVar(symexpr.Var{Buf: "s", W: symexpr.W8}), W: symexpr.W8}
	if sym.String() == "" || !sym.IsSymbolic() {
		t.Error("symbolic String()/IsSymbolic wrong")
	}
	// Expr() materializes constants for concrete values.
	if !v.Expr().IsConst() || v.Expr().ConstVal() != v.C {
		t.Error("Expr() of concrete value wrong")
	}
}

func TestMachineIntrospection(t *testing.T) {
	prog := func(m *Machine) {
		x := m.InputInt32("n", 7)
		if x.C != 7 {
			t.Errorf("default int = %d, want 7", x.C)
		}
		m.Branch(1, SltV(x, ConcreteVal(100, symexpr.W32)))
		if m.PathDepth() != 1 {
			t.Errorf("path depth = %d", m.PathDepth())
		}
		if m.Steps() == 0 {
			t.Error("steps not counted")
		}
		if m.Diverged() {
			t.Error("spurious divergence")
		}
	}
	e := NewEngine(prog, NewDFSStrategy(), Options{})
	e.RunInitial()
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestStatePathConditionExposed(t *testing.T) {
	var captured *State
	prog := func(m *Machine) {
		x := m.InputByte("b", 0, 0)
		m.Branch(1, UltV(x, ConcreteVal(9, symexpr.W8)))
	}
	e := NewEngine(prog, NewDFSStrategy(), Options{})
	e.OnFork = func(s *State) { captured = s }
	e.RunInitial()
	if captured == nil {
		t.Fatal("no fork captured")
	}
	pc := captured.PathCondition()
	if len(pc) != 1 {
		t.Fatalf("pc = %v", pc)
	}
	// The alternate's condition must contradict the taken side (x < 9 with
	// default 0 was taken, so the alternate is NOT(x < 9)).
	if symexpr.EvalBool(pc[0], symexpr.Assignment{{Buf: "b", W: symexpr.W8}: 0}) {
		t.Error("alternate pc should exclude the original input")
	}
}

func TestRunStatusStrings(t *testing.T) {
	for st, want := range map[RunStatus]string{
		RunCompleted: "completed", RunHang: "hang",
		RunAssumeFailed: "assume-failed", RunEnded: "ended",
	} {
		if st.String() != want {
			t.Errorf("%v.String() = %q", st, st.String())
		}
	}
}
