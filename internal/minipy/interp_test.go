package minipy

import (
	"strings"
	"testing"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// runSrc compiles and runs a source snippet concretely, returning printed
// output and outcome.
func runSrc(t *testing.T, src string) ([]string, Outcome) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	m := lowlevel.NewConcreteMachine(nil, 1<<22)
	var vm *VM
	var out Outcome
	status := m.RunConcrete(func(m *lowlevel.Machine) {
		vm, out = RunModule(prog, m, nil, interp.Optimized)
	})
	if status != lowlevel.RunCompleted {
		t.Fatalf("run status %v", status)
	}
	_ = vm
	return out.Printed, out
}

// expectPrints asserts the program prints the given lines.
func expectPrints(t *testing.T, src string, want ...string) {
	t.Helper()
	got, out := runSrc(t, src)
	if out.Exception != "" {
		t.Fatalf("unexpected exception %s: %s\nprinted: %v", out.Exception, out.Message, got)
	}
	if len(got) != len(want) {
		t.Fatalf("printed %d lines %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// expectException asserts the program raises the given uncaught exception.
func expectException(t *testing.T, src, excType string) {
	t.Helper()
	_, out := runSrc(t, src)
	if out.Exception != excType {
		t.Fatalf("exception = %q (%s), want %q", out.Exception, out.Message, excType)
	}
}

func TestArithmeticAndPrint(t *testing.T) {
	expectPrints(t, `
x = 3
y = 4
print(x + y * 2)
print(x - 10)
print(17 // 5, 17 % 5)
print(-17 // 5, -17 % 5)
print(2 * 3 * 4)
`, "11", "-7", "3 2", "-4 3", "24")
}

func TestBignumPromotion(t *testing.T) {
	expectPrints(t, `
x = 2000000000
y = x + x
print(y)
z = y + y
print(z)
print(z // 1000)
print(z - z)
`, "4000000000", "8000000000", "8000000", "0")
}

func TestBignumAverageExample(t *testing.T) {
	// The paper's Fig. 2 "average" example.
	expectPrints(t, `
def average(x, y):
    return (x + y) / 2
print(average(2000000000, 2000000000))
print(average(3, 4))
`, "2000000000", "3")
}

func TestStringsBasics(t *testing.T) {
	expectPrints(t, `
s = "hello world"
print(s.find("o"))
print(s.find("o", 5))
print(s.find("zz"))
print(s.upper())
print("ABC".lower())
print(s[0], s[-1])
print(s[0:5], s[6:], s[:5])
print(len(s))
print("a" + "b" + "c")
print("ab" * 3)
print("x,y,z".split(","))
print("  pad  ".strip() + "!")
print("hello".startswith("he"), "hello".endswith("lo"))
print("hello".replace("l", "L"))
print("123".isdigit(), "12a".isdigit(), "".isdigit())
print("-".join(["a", "b", "c"]))
print("hello".count("l"))
`, "4", "7", "-1", "HELLO WORLD", "abc", "h d", "hello world hello", "11",
		"abc", "ababab", "['x', 'y', 'z']", "pad!", "True True", "heLLo",
		"True False False", "a-b-c", "2")
}

func TestStringComparisons(t *testing.T) {
	expectPrints(t, `
print("abc" == "abc", "abc" == "abd", "abc" != "abd")
print("abc" < "abd", "b" > "a", "ab" < "b")
print("@" in "user@host", "#" in "user@host")
`, "True False True", "True True True", "True False")
}

func TestListOperations(t *testing.T) {
	expectPrints(t, `
l = [1, 2, 3]
l.append(4)
print(l, len(l))
print(l.pop(), l.pop(0), l)
l.extend([7, 8])
l.insert(0, 9)
print(l)
print(l.index(7))
print(2 in l, 99 in l)
print([1, 2] + [3])
print([0] * 3)
print(l[1:2])
`, "[1, 2, 3, 4] 4", "4 1 [2, 3]", "[9, 2, 3, 7, 8]", "3", "True False",
		"[1, 2, 3]", "[0, 0, 0]", "[2]")
}

func TestDictOperations(t *testing.T) {
	expectPrints(t, `
d = {"a": 1, "b": 2}
print(d["a"], d.get("b"), d.get("zz", 99))
d["c"] = 3
print(len(d), "c" in d, "zz" in d)
print(d.keys())
del d["a"]
print(len(d), "a" in d)
d2 = {}
d2[5] = "five"
print(d2[5])
print(d.setdefault("x", 7), d["x"])
for k, v in d2.items():
    print(k, v)
`, "1 2 99", "3 True False", "['a', 'b', 'c']", "2 False", "five", "7 7", "5 five")
}

func TestControlFlow(t *testing.T) {
	expectPrints(t, `
total = 0
for i in range(5):
    if i % 2 == 0:
        total += i
    else:
        total += 1
print(total)
i = 0
while True:
    i += 1
    if i == 3:
        break
print(i)
n = 0
for i in range(10):
    if i > 2:
        continue
    n += 1
print(n)
for c in "abc":
    print(c)
`, "8", "3", "3", "a", "b", "c")
}

func TestBoolLogic(t *testing.T) {
	expectPrints(t, `
print(True and False, True or False, not True)
print(1 and 2)
print(0 or "x")
print(None == None, None != 1)
x = None
if not x:
    print("none is falsy")
if [] or {}:
    print("no")
else:
    print("empty containers falsy")
`, "False True False", "2", "x", "True True", "none is falsy", "empty containers falsy")
}

func TestFunctionsAndDefaults(t *testing.T) {
	expectPrints(t, `
def add(a, b=10):
    return a + b
print(add(1), add(1, 2))
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
print(fib(10))
def outer(x):
    return inner(x) + 1
def inner(x):
    return x * 2
print(outer(5))
`, "11 3", "55", "11")
}

func TestGlobals(t *testing.T) {
	expectPrints(t, `
counter = 0
def bump():
    global counter
    counter += 1
bump()
bump()
print(counter)
`, "2")
}

func TestClasses(t *testing.T) {
	expectPrints(t, `
class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y
    def norm1(self):
        return self.x + self.y
    def shift(self, dx):
        self.x += dx
p = Point(3, 4)
print(p.norm1())
p.shift(10)
print(p.x, p.y)
class Named:
    kind = "named"
    def __init__(self):
        self.tag = Named.kind
n = Named()
print(n.tag, n.kind)
class Derived(Point):
    def norm2(self):
        return self.x * self.x + self.y * self.y
d = Derived(3, 4)
print(d.norm1(), d.norm2())
print(isinstance(d, Derived), isinstance(d, Point), isinstance(p, Derived))
`, "7", "13 4", "named named", "7 25", "True True False")
}

func TestExceptions(t *testing.T) {
	expectPrints(t, `
try:
    raise ValueError("boom")
except ValueError as e:
    print("caught", e)
try:
    x = 1 // 0
except ZeroDivisionError:
    print("div")
except Exception:
    print("other")
try:
    raise KeyError("k")
except ValueError:
    print("no")
except Exception as e:
    print("generic", e)
def thrower():
    raise IndexError("deep")
try:
    thrower()
except IndexError as e:
    print("propagated", e)
done = False
try:
    try:
        raise TypeError("t")
    finally:
        print("finally runs")
except TypeError:
    print("outer caught")
`, "caught boom", "div", "generic k", "propagated deep", "finally runs", "outer caught")
}

func TestUncaughtExceptions(t *testing.T) {
	expectException(t, `x = [1][5]`, "IndexError")
	expectException(t, `x = {}["missing"]`, "KeyError")
	expectException(t, `x = 1 // 0`, "ZeroDivisionError")
	expectException(t, `x = undefined_name`, "NameError")
	expectException(t, `x = "a" + 1`, "TypeError")
	expectException(t, `x = int("12x")`, "ValueError")
	expectException(t, `raise RuntimeError("custom")`, "RuntimeError")
	expectException(t, `x = "abc".bogus()`, "AttributeError")
}

func TestBuiltins(t *testing.T) {
	expectPrints(t, `
print(ord("A"), chr(66))
print(int("42"), int("-7"), int(" 13 "))
print(str(42), str(-3), str(0))
print(abs(-5), abs(5))
print(min(3, 1, 2), max([4, 9, 2]))
print(len("abcd"), len([1, 2]), len({"a": 1}))
print(bool(0), bool(3), bool(""))
print(list("ab"))
print(type(1), type("x"), type([]))
`, "65 B", "42 -7 13", "42 -3 0", "5 5", "1 9", "4 2 1",
		"False True False", "['a', 'b']", "int str list")
}

func TestStrFormat(t *testing.T) {
	expectPrints(t, `
print("value: %s" % "x")
print("n=%d!" % 42)
print("100%%" % "unused-free")
`, "value: x", "n=42!", "100%")
}

func TestForUnpack(t *testing.T) {
	expectPrints(t, `
pairs = [[1, "a"], [2, "b"]]
for n, s in pairs:
    print(n, s)
`, "1 a", "2 b")
}

func TestTryFinallyNoExcept(t *testing.T) {
	expectPrints(t, `
def f():
    try:
        return "early"
    finally:
        print("cleanup")
x = 0
try:
    x = 1
finally:
    x += 1
print(x)
`, "2")
}

func TestRecursionLimit(t *testing.T) {
	expectException(t, `
def loop(n):
    return loop(n + 1)
loop(0)
`, "RuntimeError")
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"if x\n    pass",
		"def f(:\n    pass",
		"x = ",
		"while",
		"x = 'unterminated",
		"try:\n    pass",
		"break",
		"  unexpected_indent = 1",
		"def f(a=1, b):\n    pass",
		"def f(a, a):\n    pass",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
}

func TestCoverableLinesAndLineOf(t *testing.T) {
	prog, err := Compile("x = 1\ny = 2\n\n# comment\nz = x + y\n")
	if err != nil {
		t.Fatal(err)
	}
	lines := prog.CoverableLines()
	for _, want := range []int{1, 2, 5} {
		if !lines[want] {
			t.Errorf("line %d should be coverable: %v", want, lines)
		}
	}
	if lines[4] {
		t.Error("comment line must not be coverable")
	}
	if got := prog.LineOf(prog.Main.HLPCAt(0)); got != 1 {
		t.Errorf("LineOf(first instr) = %d, want 1", got)
	}
}

func TestHangDetectedAsStepLimit(t *testing.T) {
	prog, err := Compile("while True:\n    pass\n")
	if err != nil {
		t.Fatal(err)
	}
	m := lowlevel.NewConcreteMachine(nil, 2000)
	status := m.RunConcrete(func(m *lowlevel.Machine) { RunModule(prog, m, nil, interp.Vanilla) })
	if status != lowlevel.RunHang {
		t.Fatalf("status = %v, want hang", status)
	}
}

func TestAllOptLevelsAgreeConcretely(t *testing.T) {
	// Property: the §4.2 optimizations preserve interpretation semantics —
	// all four builds must produce identical concrete results.
	src := `
d = {"alpha": 1, "beta": 2}
d["gamma"] = d["alpha"] + d["beta"]
s = "Hello, World"
out = []
out.append(str(d["gamma"]))
out.append(s.lower())
out.append(str(s.find("World")))
out.append(",".join(["a", "b"]))
out.append(str(12345 * 6789))
out.append(str(2000000000 + 2000000000))
print("|".join(out))
`
	var results []string
	for _, cfg := range interp.OptLevels() {
		prog := MustCompile(src)
		m := lowlevel.NewConcreteMachine(nil, 1<<22)
		var out Outcome
		m.RunConcrete(func(m *lowlevel.Machine) { _, out = RunModule(prog, m, nil, cfg) })
		if out.Exception != "" {
			t.Fatalf("cfg %+v: exception %s: %s", cfg, out.Exception, out.Message)
		}
		results = append(results, strings.Join(out.Printed, "\n"))
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("opt level %d output differs:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
}

func TestLexerDetails(t *testing.T) {
	toks, err := Lex("x = 0x1f # comment\ns = 'a\\nb\\x41'\n")
	if err != nil {
		t.Fatal(err)
	}
	var ints []int64
	var strs []string
	for _, tk := range toks {
		switch tk.Kind {
		case TokInt:
			ints = append(ints, tk.Int)
		case TokStr:
			strs = append(strs, tk.Text)
		}
	}
	if len(ints) != 1 || ints[0] != 0x1f {
		t.Errorf("ints = %v", ints)
	}
	if len(strs) != 1 || strs[0] != "a\nbA" {
		t.Errorf("strs = %q", strs)
	}
}

func TestBracketsSpanLines(t *testing.T) {
	expectPrints(t, `
l = [1,
     2,
     3]
print(len(l))
d = {"a": 1,
     "b": 2}
print(len(d))
`, "3", "2")
}

func TestAssertStatement(t *testing.T) {
	expectPrints(t, `
assert True
assert 1 + 1 == 2, "math works"
print("passed")
`, "passed")
	expectException(t, `assert False`, "AssertionError")
	expectException(t, `assert 1 == 2, "custom message"`, "AssertionError")
}

func TestNewStringMethods(t *testing.T) {
	expectPrints(t, `
print("hello world".rfind("o"))
print("hello".rfind("zz"))
print("a\nb\nc".splitlines())
print("7".zfill(3))
print("abc".zfill(2))
print("hi".rjust(4), "|")
print("hi".ljust(4), "|")
print("hi".rjust(4, "*"))
print("a=b=c".partition("="))
print("x".partition("-"))
print("hELLO wORLD".capitalize())
`, "7", "-1", "['a', 'b', 'c']", "007", "abc", "  hi |", "hi   |", "**hi",
		"['a', '=', 'b=c']", "['x', '', '']", "Hello world")
}

func TestNewBuiltins(t *testing.T) {
	expectPrints(t, `
print(sorted([3, 1, 2]))
print(sorted(["b", "a", "c"]))
print(sorted({"z": 1, "a": 2}))
print(sum([1, 2, 3, 4]))
print(sum([]))
for pair in enumerate(["x", "y"]):
    print(pair[0], pair[1])
`, "[1, 2, 3]", "['a', 'b', 'c']", "['a', 'z']", "10", "0", "0 x", "1 y")
}

func TestReprAndMiscBuiltins(t *testing.T) {
	expectPrints(t, `
print(repr("x"), repr([1, "a"]), repr(None), repr(True))
d = dict()
d["k"] = {"n": 1}
print(repr(d))
print(isinstance(1, int), isinstance("s", str), isinstance([], list))
print(isinstance({}, dict), isinstance(True, bool), isinstance(1, str))
e = ValueError("boom")
print(isinstance(e, ValueError), isinstance(e, Exception), isinstance(e, KeyError))
`, `"x" [1, "a"] None True`, `{"k": {"n": 1}}`, "True True True",
		"True True False", "True True False")
}

func TestOptLevelNamesAligned(t *testing.T) {
	if len(interp.OptLevels()) != len(interp.OptLevelNames()) {
		t.Fatal("OptLevels and OptLevelNames misaligned")
	}
	if interp.OptLevelNames()[0] != "No Optimizations" {
		t.Fatal("unexpected first level name")
	}
	if interp.OptLevels()[3] != interp.Optimized {
		t.Fatal("last level must equal Optimized")
	}
}

func TestOutcomeResultForm(t *testing.T) {
	if (Outcome{}).Result() != "ok" {
		t.Error("empty outcome must be ok")
	}
	if (Outcome{Exception: "KeyError"}).Result() != "exception:KeyError" {
		t.Error("exception outcome form wrong")
	}
}

func TestClassStrDunder(t *testing.T) {
	expectPrints(t, `
class Wrapped:
    def __init__(self, v):
        self.v = v
    def __str__(self):
        return "<" + str(self.v) + ">"
w = Wrapped(7)
print(str(w))
print("val: %s" % w)
`, "<7>", "val: <7>")
}

func TestExceptionMessageAttr(t *testing.T) {
	expectPrints(t, `
try:
    raise ValueError("the message")
except ValueError as e:
    print(e.message)
    print(str(e))
`, "the message", "the message")
}

func TestBreakInsideTryPopsHandlerBlock(t *testing.T) {
	// Regression: break inside try used to leave the handler block on the
	// frame's block stack; a later exception in the same frame was then
	// wrongly routed into the stale handler.
	expectException(t, `
while True:
    try:
        break
    except Exception:
        print("WRONG: stale handler caught")
raise ValueError("must escape")
`, "ValueError")
	expectPrints(t, `
n = 0
for i in range(4):
    try:
        if i == 2:
            continue
        n += 1
    except Exception:
        print("WRONG")
try:
    raise KeyError("k")
except KeyError:
    print("caught", n)
`, "caught 3")
}

func TestChainedComparisonRejected(t *testing.T) {
	if _, err := Compile("x = 1 < 2 < 3"); err == nil {
		t.Fatal("chained comparison must be a compile error (Python semantics differ)")
	}
	// Parenthesized forms remain legal.
	expectPrints(t, "print((1 < 2) == True)", "True")
}

func TestExceptionEdgeCases(t *testing.T) {
	// Exception raised inside an except handler propagates outward.
	expectPrints(t, `
try:
    try:
        raise ValueError("inner")
    except ValueError:
        raise KeyError("from handler")
except KeyError as e:
    print("outer caught", e)
`, "outer caught from handler")
	// Exception inside a finally body replaces the pending exception.
	expectPrints(t, `
try:
    try:
        raise ValueError("original")
    finally:
        raise KeyError("from finally")
except KeyError:
    print("finally exception wins")
except ValueError:
    print("WRONG")
`, "finally exception wins")
	// Finally runs when the body returns through it... (not supported:
	// return skips finally — documented); instead check normal completion.
	expectPrints(t, `
log = []
try:
    log.append("body")
finally:
    log.append("fin")
print(log)
`, "['body', 'fin']")
	// Handler binding shadows then restores nothing (Python 2 keeps it).
	expectPrints(t, `
e = "before"
try:
    raise ValueError("v")
except ValueError as e:
    pass
print(e)
`, "v")
	// Nested loops with try and break interplay.
	expectPrints(t, `
total = 0
for i in range(3):
    for j in range(3):
        try:
            if j == 1:
                break
            total += 1
        except Exception:
            print("WRONG")
print(total)
`, "3")
}

func TestDeepRecursionThroughTry(t *testing.T) {
	// Exceptions crossing many frames unwind correctly.
	expectPrints(t, `
def dig(n):
    if n == 0:
        raise IndexError("bottom")
    return dig(n - 1)
try:
    dig(20)
except IndexError as e:
    print("surfaced", e)
`, "surfaced bottom")
}
