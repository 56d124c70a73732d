package minilua

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

func evalLuaExpr(t *testing.T, expr string) string {
	t.Helper()
	out, res := runLua(t, "print("+expr+")")
	if res.Error != "" {
		t.Fatalf("%s: error %s", expr, res.Error)
	}
	if len(out) != 1 {
		t.Fatalf("%s: printed %v", expr, out)
	}
	return out[0]
}

func goLuaFloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func goLuaMod(a, b int64) int64 {
	r := a % b
	if r != 0 && ((r < 0) != (b < 0)) {
		r += b
	}
	return r
}

// TestLuaDivModDifferential compares / and % against Lua's floor semantics.
func TestLuaDivModDifferential(t *testing.T) {
	f := func(a int16, b int16) bool {
		if b == 0 {
			return true
		}
		got := evalLuaExpr(t, fmt.Sprintf("(%d) / (%d)", a, b))
		if got != fmt.Sprint(goLuaFloorDiv(int64(a), int64(b))) {
			t.Logf("div(%d,%d) = %s", a, b, got)
			return false
		}
		got = evalLuaExpr(t, fmt.Sprintf("(%d) %% (%d)", a, b))
		return got == fmt.Sprint(goLuaMod(int64(a), int64(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func quoteForLua(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString("\\n")
		case '\t':
			sb.WriteString("\\t")
		case '\r':
			sb.WriteString("\\r")
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func randASCII(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('!' + r.Intn(90))
	}
	return string(b)
}

// TestLuaStringDifferential compares sub/find/upper/lower/rep against Go.
func TestLuaStringDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	luaSub := func(s string, i, j int) string {
		n := len(s)
		if i < 0 {
			i = n + i + 1
		}
		if j < 0 {
			j = n + j + 1
		}
		if i < 1 {
			i = 1
		}
		if j > n {
			j = n
		}
		if i > j {
			return ""
		}
		return s[i-1 : j]
	}
	for trial := 0; trial < 50; trial++ {
		s := randASCII(r, 1+r.Intn(9))
		q := quoteForLua(s)
		i := r.Intn(2*len(s)+3) - len(s) - 1
		j := r.Intn(2*len(s)+3) - len(s) - 1
		if got, want := evalLuaExpr(t, fmt.Sprintf("string.sub(%s, %d, %d)", q, i, j)), luaSub(s, i, j); got != want {
			t.Fatalf("sub(%q,%d,%d) = %q, want %q", s, i, j, got, want)
		}
		needle := randASCII(r, 1+r.Intn(2))
		if r.Intn(3) == 0 {
			pos := r.Intn(len(s))
			s = s[:pos] + needle + s[pos:]
			q = quoteForLua(s)
		}
		goPos := strings.Index(s, needle)
		want := "nil"
		if goPos >= 0 {
			want = fmt.Sprint(goPos + 1)
		}
		if got := evalLuaExpr(t, fmt.Sprintf("%s:find(%s)", q, quoteForLua(needle))); got != want {
			t.Fatalf("find(%q,%q) = %s, want %s", s, needle, got, want)
		}
		if got, want := evalLuaExpr(t, q+":upper()"), strings.ToUpper(s); got != want {
			t.Fatalf("upper(%q) = %q, want %q", s, got, want)
		}
		if got, want := evalLuaExpr(t, q+":lower()"), strings.ToLower(s); got != want {
			t.Fatalf("lower(%q) = %q, want %q", s, got, want)
		}
		n := r.Intn(4)
		if got, want := evalLuaExpr(t, fmt.Sprintf("string.rep(%s, %d)", q, n)), strings.Repeat(s, n); got != want {
			t.Fatalf("rep(%q,%d) = %q, want %q", s, n, got, want)
		}
	}
}

// TestLuaTableModelBased drives a table with random ops against a Go model,
// across all optimization configurations.
func TestLuaTableModelBased(t *testing.T) {
	for _, cfg := range []interp.Config{interp.Vanilla, interp.Optimized} {
		prog := mustCompile(t, `
t = {}
function tset(k, v)
    t[k] = v
end
function tget(k)
    local v = t[k]
    if v == nil then
        return -1
    end
    return v
end
function tdel(k)
    t[k] = nil
end
`)
		m := lowlevel.NewConcreteMachine(nil, 1<<24)
		var vm *VM
		var out Outcome
		m.RunConcrete(func(mm *lowlevel.Machine) { vm, out = RunModule(prog, mm, nil, cfg) })
		if out.Error != "" {
			t.Fatalf("setup: %s", out.Error)
		}
		model := map[string]int64{}
		r := rand.New(rand.NewSource(21))
		keys := []string{"x", "y", "zz", "q1", "q2", "longer-key"}
		call := func(name string, args ...Value) Value {
			var v Value
			var err *LuaError
			st := m.RunConcrete(func(*lowlevel.Machine) { v, err = vm.CallFunction(name, args) })
			if st != lowlevel.RunCompleted || err != nil {
				t.Fatalf("table op: %v %v", st, err)
			}
			return v
		}
		for op := 0; op < 250; op++ {
			k := keys[r.Intn(len(keys))]
			switch r.Intn(3) {
			case 0:
				val := r.Int63n(500)
				call("tset", MkStr(k), MkInt(val))
				model[k] = val
			case 1:
				v := call("tget", MkStr(k))
				want, ok := model[k]
				if !ok {
					want = -1
				}
				if got := v.(IntVal).V.Int(); got != want {
					t.Fatalf("cfg %+v get(%q) = %d, want %d", cfg, k, got, want)
				}
			case 2:
				call("tdel", MkStr(k))
				delete(model, k)
			}
		}
	}
}

// TestLuaArrayPartDifferential checks the array-part semantics of # and
// table.insert/remove against a Go slice model.
func TestLuaArrayPartDifferential(t *testing.T) {
	prog := mustCompile(t, `
a = {}
function push(v)
    table.insert(a, v)
end
function popend()
    return table.remove(a)
end
function alen()
    return #a
end
function aget(i)
    return a[i]
end
`)
	m := lowlevel.NewConcreteMachine(nil, 1<<24)
	var vm *VM
	m.RunConcrete(func(mm *lowlevel.Machine) { vm, _ = RunModule(prog, mm, nil, interp.Optimized) })
	var model []int64
	r := rand.New(rand.NewSource(22))
	call := func(name string, args ...Value) Value {
		var v Value
		var err *LuaError
		st := m.RunConcrete(func(*lowlevel.Machine) { v, err = vm.CallFunction(name, args) })
		if st != lowlevel.RunCompleted || err != nil {
			t.Fatalf("%s: %v %v", name, st, err)
		}
		return v
	}
	for op := 0; op < 200; op++ {
		switch r.Intn(4) {
		case 0:
			v := r.Int63n(100)
			call("push", MkInt(v))
			model = append(model, v)
		case 1:
			got := call("popend")
			if len(model) == 0 {
				if _, isNil := got.(NilVal); !isNil {
					t.Fatalf("pop of empty = %v", got)
				}
			} else {
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if got.(IntVal).V.Int() != want {
					t.Fatalf("pop = %v, want %d", got, want)
				}
			}
		case 2:
			if got := call("alen").(IntVal).V.Int(); got != int64(len(model)) {
				t.Fatalf("len = %d, want %d", got, len(model))
			}
		case 3:
			if len(model) > 0 {
				i := r.Intn(len(model))
				if got := call("aget", MkInt(int64(i+1))).(IntVal).V.Int(); got != model[i] {
					t.Fatalf("a[%d] = %d, want %d", i+1, got, model[i])
				}
			}
		}
	}
}

// TestLuaConcatNumbers checks tostring coercion in concat.
func TestLuaConcatNumbers(t *testing.T) {
	f := func(n int16) bool {
		got := evalLuaExpr(t, fmt.Sprintf(`"v=" .. (%d)`, n))
		return got == fmt.Sprintf("v=%d", n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLuaToNumberDifferential checks tonumber against strconv semantics for
// integer-looking strings.
func TestLuaToNumberDifferential(t *testing.T) {
	cases := map[string]string{
		`tonumber("0")`:     "0",
		`tonumber("00")`:    "0",
		`tonumber("-0")`:    "0",
		`tonumber("+7")`:    "7",
		`tonumber("-")`:     "nil",
		`tonumber("+")`:     "nil",
		`tonumber("")`:      "nil",
		`tonumber("1a")`:    "nil",
		`tonumber("  1")`:   "nil", // MiniLua does not skip whitespace
		`tonumber("12345")`: "12345",
	}
	for expr, want := range cases {
		if got := evalLuaExpr(t, expr); got != want {
			t.Errorf("%s = %s, want %s", expr, got, want)
		}
	}
}
