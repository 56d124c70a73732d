package minilua

import (
	"testing"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

func runLua(t *testing.T, src string) ([]string, Outcome) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	m := lowlevel.NewConcreteMachine(nil, 1<<22)
	var out Outcome
	status := m.RunConcrete(func(m *lowlevel.Machine) {
		_, out = RunModule(prog, m, nil, interp.Optimized)
	})
	if status != lowlevel.RunCompleted {
		t.Fatalf("run status %v", status)
	}
	return out.Printed, out
}

func wantLua(t *testing.T, src string, want ...string) {
	t.Helper()
	got, out := runLua(t, src)
	if out.Error != "" {
		t.Fatalf("unexpected error %q\nprinted: %v", out.Error, got)
	}
	if len(got) != len(want) {
		t.Fatalf("printed %v (%d lines), want %v", got, len(got), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func wantLuaError(t *testing.T, src, errSub string) {
	t.Helper()
	_, out := runLua(t, src)
	if out.Error == "" {
		t.Fatalf("expected error containing %q, got success", errSub)
	}
	if errSub != "" && !contains(out.Error, errSub) {
		t.Fatalf("error %q does not contain %q", out.Error, errSub)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestLuaArithmetic(t *testing.T) {
	wantLua(t, `
local x = 3 + 4 * 2
print(x)
print(17 / 5, 17 % 5)
print(-17 / 5, -17 % 5)
print(2 - 10)
`, "11", "3\t2", "-4\t3", "-8")
}

func TestLuaStringsAndConcat(t *testing.T) {
	wantLua(t, `
local s = "hello" .. " " .. "world"
print(s)
print(#s)
print(string.sub(s, 1, 5))
print(s:sub(7))
print(s:upper())
print(string.lower("ABC"))
print(s:find("world"))
print(s:find("zzz"))
print(string.byte("A"), string.char(66, 67))
print(string.rep("ab", 3))
print("n=" .. 42)
`, "hello world", "11", "hello", "world", "HELLO WORLD", "abc", "7", "nil", "65\tBC", "ababab", "n=42")
}

func TestLuaTables(t *testing.T) {
	wantLua(t, `
local t = {10, 20, 30}
print(#t, t[1], t[3])
t[4] = 40
print(#t)
local d = {name = "x", ["key"] = 5}
print(d.name, d["key"])
d.other = true
print(d.other, d.missing)
d.name = nil
print(d.name)
table.insert(t, 50)
print(#t, t[5])
local r = table.remove(t)
print(r, #t)
table.insert(t, 1, 5)
print(t[1], t[2])
print(table.concat({"a", "b", "c"}, "-"))
`, "3\t10\t30", "4", "x\t5", "true\tnil", "nil", "5\t50", "50\t4", "5\t10", "a-b-c")
}

func TestLuaControlFlow(t *testing.T) {
	wantLua(t, `
local total = 0
for i = 1, 5 do
    total = total + i
end
print(total)
for i = 10, 1, -3 do
    total = total + 1
end
print(total)
local i = 0
while true do
    i = i + 1
    if i == 3 then break end
end
print(i)
local n = 0
repeat
    n = n + 1
until n >= 4
print(n)
if n > 3 then
    print("big")
elseif n > 1 then
    print("mid")
else
    print("small")
end
`, "15", "19", "3", "4", "big")
}

func TestLuaGenericFor(t *testing.T) {
	wantLua(t, `
local t = {"a", "b"}
for i, v in ipairs(t) do
    print(i, v)
end
local d = {}
d.x = 1
d.y = 2
local total = 0
for k, v in pairs(d) do
    total = total + v
end
print(total)
for k in pairs({z = 9}) do
    print(k)
end
`, "1\ta", "2\tb", "3", "z")
}

func TestLuaFunctions(t *testing.T) {
	wantLua(t, `
function add(a, b)
    return a + b
end
print(add(2, 3))
local function double(x)
    return x * 2
end
print(double(21))
local f = function(x) return x + 1 end
print(f(10))
function fib(n)
    if n < 2 then return n end
    return fib(n-1) + fib(n-2)
end
print(fib(10))
local t = {}
function t.method(x)
    return x .. "!"
end
print(t.method("hi"))
`, "5", "42", "11", "55", "hi!")
}

func TestLuaLogic(t *testing.T) {
	wantLua(t, `
print(true and false, true or false, not true)
print(1 and 2)
print(nil or "x")
print(nil == nil, nil == false)
print("a" == "a", "a" ~= "b")
print("abc" < "abd", "b" > "a")
print(3 == 3, 3 ~= 4, 2 <= 2)
`, "false\ttrue\tfalse", "2", "x", "true\tfalse", "true\ttrue", "true\ttrue", "true\ttrue\ttrue")
}

func TestLuaErrorsAndPcall(t *testing.T) {
	wantLua(t, `
local r = pcall(function() error("boom") end)
print(r[1], r[2])
local ok = pcall(function() return 7 end)
print(ok[1], ok[2])
`, "false\tboom", "true\t7")
	wantLuaError(t, `error("direct")`, "direct")
	wantLuaError(t, `local x = 1 / 0`, "n/0")
	wantLuaError(t, `local x = {} + 1`, "arithmetic")
	wantLuaError(t, `local x = nil .. "a"`, "concatenate")
	wantLuaError(t, `undefined_fn()`, "call")
	wantLuaError(t, `assert(false, "custom assert")`, "custom assert")
}

func TestLuaToNumberToString(t *testing.T) {
	wantLua(t, `
print(tonumber("42"), tonumber("-3"), tonumber("12x"))
print(tostring(5), tostring(nil), tostring(true))
print(type(1), type("s"), type({}), type(nil), type(print))
`, "42\t-3\tnil", "5\tnil\ttrue", "number\tstring\ttable\tnil\tfunction")
}

func TestLuaComments(t *testing.T) {
	wantLua(t, `
-- line comment
local x = 1 -- trailing
--[[ long
comment ]]
print(x)
`, "1")
}

func TestLuaScoping(t *testing.T) {
	wantLua(t, `
local x = 1
do
    local x = 2
    print(x)
end
print(x)
g = 10
local function bump()
    g = g + 1
end
bump()
print(g)
`, "2", "1", "11")
}

func TestLuaCompileErrors(t *testing.T) {
	bad := []string{
		"if x print(1) end",
		"for i = 1 do end",
		"local = 5",
		"print(",
		"function() end", // statement function needs a name
		"x = ",
		"while do end",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
}

func TestLuaOptLevelsAgreeConcretely(t *testing.T) {
	src := `
local d = {}
d["alpha"] = 1
d["beta"] = 2
local s = "Hello, World"
print(d["alpha"] + d["beta"])
print(s:lower())
print(s:find("World"))
print(table.concat({1, 2, 3}, ","))
`
	var results [][]string
	for _, cfg := range []interp.Config{interp.Vanilla, {AvoidSymbolicPointers: true}, {AvoidSymbolicPointers: true, HashNeutralization: true}, interp.Optimized} {
		prog := mustCompile(t, src)
		m := lowlevel.NewConcreteMachine(nil, 1<<22)
		var out Outcome
		m.RunConcrete(func(m *lowlevel.Machine) { _, out = RunModule(prog, m, nil, cfg) })
		if out.Error != "" {
			t.Fatalf("cfg %+v: error %s", cfg, out.Error)
		}
		results = append(results, out.Printed)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("output length differs between opt levels")
		}
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Errorf("opt level %d line %d: %q vs %q", i, j, results[i][j], results[0][j])
			}
		}
	}
}

func TestLuaHang(t *testing.T) {
	prog := mustCompile(t, "while true do end")
	m := lowlevel.NewConcreteMachine(nil, 2000)
	status := m.RunConcrete(func(m *lowlevel.Machine) { RunModule(prog, m, nil, interp.Vanilla) })
	if status != lowlevel.RunHang {
		t.Fatalf("status = %v, want hang", status)
	}
}

func TestLuaStringCallSugar(t *testing.T) {
	wantLua(t, `
function shout(s)
    return s .. "!"
end
print(shout "hey")
`, "hey!")
}

func TestLuaStringFormatAndGsub(t *testing.T) {
	wantLua(t, `
print(string.format("%s=%d", "x", 42))
print(string.format("100%%"))
print(string.format("a%sb%sc", 1, 2))
print(string.gsub("hello world", "o", "0"))
print(string.gsub("aaa", "aa", "b"))
print(("x-y-z"):gsub("-", "+"))
`, "x=42", "100%", "a1b2c", "hell0 w0rld", "ba", "x+y+z")
}

// mustCompile compiles src or fails the test.
func mustCompile(t testing.TB, src string) *Program {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
