package minipy

import (
	"slices"
	"testing"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// TestSlotLocals pins name resolution in function bodies, whose locals are
// slots indexed like Code.Names: an unbound slot falls through to the
// module namespace and then to the builtins.
func TestSlotLocals(t *testing.T) {
	t.Run("del local falls back to global", func(t *testing.T) {
		expectPrints(t, `
x = "global"
def f():
    x = "local"
    print(x)
    del x
    print(x)
f()
`, "local", "global")
	})
	t.Run("del local without global", func(t *testing.T) {
		expectException(t, `
def f():
    w = 1
    del w
    return w
f()
`, "NameError")
	})
	t.Run("global statement after first use", func(t *testing.T) {
		// The declaration covers the whole body, uses before it included.
		expectPrints(t, `
y = 1
def g():
    print(y)
    y = 5
    global y
    return y
print(g())
print(y)
`, "1", "5", "5")
	})
	t.Run("except as binds the name", func(t *testing.T) {
		expectPrints(t, `
e = "outer"
def h():
    try:
        raise ValueError("boom")
    except ValueError as e:
        return e.message
print(h())
print(e)
try:
    raise KeyError("k")
except KeyError as e:
    print(e.message)
`, "boom", "outer", "k")
	})
	t.Run("parameter shadows builtin", func(t *testing.T) {
		expectPrints(t, `
def k(len, str=2):
    return len + str
print(k(40))
print(len("abc"))
`, "42", "3")
	})
	t.Run("read before assignment reaches global", func(t *testing.T) {
		expectPrints(t, `
z = 7
def r():
    a = z
    z = 3
    return a + z
print(r())
print(z)
`, "10", "7")
	})
	t.Run("parameter i is slot i", func(t *testing.T) {
		prog := MustCompile("def f(p, q, unused):\n    v = q\n    return p + v\n")
		code := prog.Blocks[1]
		if !slices.Equal(code.Names[:len(code.Params)], code.Params) {
			t.Fatalf("Names %v do not start with Params %v", code.Names, code.Params)
		}
	})
	t.Run("bound method and defaults", func(t *testing.T) {
		expectPrints(t, `
class C:
    def m(self, a, b=10):
        return a + b
c = C()
print(c.m(1))
print(c.m(1, 2))
`, "11", "3")
	})
	t.Run("recursion keeps frames apart", func(t *testing.T) {
		expectPrints(t, `
def fact(n):
    if n <= 1:
        return 1
    r = n * fact(n - 1)
    return r
def outer(a):
    try:
        b = fact(a)
        raise ValueError("x")
    except ValueError:
        return a + b
print(outer(5))
`, "125")
	})
}

// TestGuestCallAllocs bounds what a call of a two-parameter function
// allocates once the VM has warmed up: only the boxed result of a + b. The
// locals and the operand stack come from storage the VM reuses.
func TestGuestCallAllocs(t *testing.T) {
	prog := MustCompile("def f(a, b):\n    return a + b\n")
	m := lowlevel.NewConcreteMachine(nil, 1<<50)
	vm, out := RunModule(prog, m, nil, interp.Optimized)
	if out.Exception != "" {
		t.Fatal(out.Exception)
	}
	args := []Value{MkInt(1), MkInt(2)}
	if n := testing.AllocsPerRun(100, func() { vm.CallFunction("f", args) }); n > 1 {
		t.Errorf("a two-parameter call allocates %v times, want at most 1", n)
	}
}
