package minipy

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// evalExprSrc runs `print(<expr>)` and returns the printed line.
func evalExprSrc(t *testing.T, expr string) string {
	t.Helper()
	out, res := runSrc(t, "print("+expr+")")
	if res.Exception != "" {
		t.Fatalf("%s: exception %s: %s", expr, res.Exception, res.Message)
	}
	if len(out) != 1 {
		t.Fatalf("%s: printed %v", expr, out)
	}
	return out[0]
}

// pyFloorDiv/pyMod implement Python's semantics in Go for differential
// comparison.
func pyFloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pyMod(a, b int64) int64 {
	r := a % b
	if r != 0 && ((r < 0) != (b < 0)) {
		r += b
	}
	return r
}

// TestDivModDifferential compares MiniPy's // and % against Python's
// semantics for random operands, including negatives.
func TestDivModDifferential(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		got := evalExprSrc(t, fmt.Sprintf("%d // %d", a, b))
		want := fmt.Sprintf("%d", pyFloorDiv(int64(a), int64(b)))
		if got != want {
			t.Logf("floordiv(%d, %d) = %s, want %s", a, b, got, want)
			return false
		}
		got = evalExprSrc(t, fmt.Sprintf("%d %% %d", a, b))
		want = fmt.Sprintf("%d", pyMod(int64(a), int64(b)))
		if got != want {
			t.Logf("mod(%d, %d) = %s, want %s", a, b, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBignumDifferential compares bignum arithmetic against math/big.
func TestBignumDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		a := r.Int63n(1 << 40)
		b := r.Int63n(1 << 40)
		if r.Intn(2) == 0 {
			a = -a
		}
		if r.Intn(2) == 0 {
			b = -b
		}
		// Force promotion via multiplication of large values.
		src := fmt.Sprintf("x = %d\ny = %d\nprint(x + y)\nprint(x - y)\nprint(x * y)", a, b)
		out, res := runSrc(t, src)
		if res.Exception != "" {
			t.Fatalf("%s: %s", src, res.Exception)
		}
		ba, bb := big.NewInt(a), big.NewInt(b)
		wants := []string{
			new(big.Int).Add(ba, bb).String(),
			new(big.Int).Sub(ba, bb).String(),
			new(big.Int).Mul(ba, bb).String(),
		}
		for i, want := range wants {
			if out[i] != want {
				t.Fatalf("trial %d op %d: got %s, want %s (a=%d b=%d)", trial, i, out[i], want, a, b)
			}
		}
	}
}

// TestBignumDivisionDifferential checks // and % with big dividends and
// small concrete divisors against math/big's Euclidean-adjusted semantics.
func TestBignumDivisionDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		a := (r.Int63n(1<<40) + (1 << 35))
		if r.Intn(2) == 0 {
			a = -a
		}
		b := r.Int63n(999) + 1
		src := fmt.Sprintf("x = %d * 1000\nprint(x // %d)\nprint(x %% %d)", a, b, b)
		out, res := runSrc(t, src)
		if res.Exception != "" {
			t.Fatalf("%s: %s", src, res.Exception)
		}
		wantQ := fmt.Sprintf("%d", pyFloorDiv(a*1000, b))
		wantR := fmt.Sprintf("%d", pyMod(a*1000, b))
		if out[0] != wantQ || out[1] != wantR {
			t.Fatalf("trial %d: (%d*1000) divmod %d = %s,%s; want %s,%s",
				trial, a, b, out[0], out[1], wantQ, wantR)
		}
	}
}

// randomASCII builds a printable ASCII string.
func randomASCII(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + r.Intn(94))
	}
	return string(b)
}

func quoteForMiniPy(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
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

// TestStringOpsDifferential compares find/replace/upper/lower/strip/count
// against the Go strings package on random inputs.
func TestStringOpsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 50; trial++ {
		hay := randomASCII(r, 3+r.Intn(10))
		needle := randomASCII(r, 1+r.Intn(2))
		if r.Intn(3) == 0 { // sometimes guarantee a hit
			pos := r.Intn(len(hay))
			hay = hay[:pos] + needle + hay[pos:]
		}
		qh, qn := quoteForMiniPy(hay), quoteForMiniPy(needle)

		if got, want := evalExprSrc(t, qh+".find("+qn+")"), fmt.Sprint(strings.Index(hay, needle)); got != want {
			t.Fatalf("find(%q, %q) = %s, want %s", hay, needle, got, want)
		}
		if got, want := evalExprSrc(t, qh+".count("+qn+")"), fmt.Sprint(strings.Count(hay, needle)); got != want {
			t.Fatalf("count(%q, %q) = %s, want %s", hay, needle, got, want)
		}
		if got, want := evalExprSrc(t, qh+".upper()"), strings.ToUpper(hay); got != want {
			t.Fatalf("upper(%q) = %q, want %q", hay, got, want)
		}
		if got, want := evalExprSrc(t, qh+".lower()"), strings.ToLower(hay); got != want {
			t.Fatalf("lower(%q) = %q, want %q", hay, got, want)
		}
		if got, want := evalExprSrc(t, qh+".replace("+qn+", \"_\")"),
			strings.ReplaceAll(hay, needle, "_"); got != want {
			t.Fatalf("replace(%q, %q) = %q, want %q", hay, needle, got, want)
		}
		if got, want := evalExprSrc(t, qh+".startswith("+qn+")"),
			pyBool(strings.HasPrefix(hay, needle)); got != want {
			t.Fatalf("startswith(%q, %q) = %s, want %s", hay, needle, got, want)
		}
		if got, want := evalExprSrc(t, "("+qh+" < "+qn+")"), pyBool(hay < needle); got != want {
			t.Fatalf("lt(%q, %q) = %s, want %s", hay, needle, got, want)
		}
	}
}

func pyBool(b bool) string {
	if b {
		return "True"
	}
	return "False"
}

// TestStripDifferential compares strip variants against strings.Trim*.
func TestStripDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const cutset = " \t\n\r"
	for trial := 0; trial < 40; trial++ {
		pad := func() string {
			n := r.Intn(3)
			b := make([]byte, n)
			for i := range b {
				b[i] = cutset[r.Intn(len(cutset))]
			}
			return string(b)
		}
		core := randomASCII(r, 1+r.Intn(5))
		core = strings.Trim(core, cutset)
		if core == "" {
			core = "x"
		}
		s := pad() + core + pad()
		q := quoteForMiniPy(s)
		if got, want := evalExprSrc(t, q+".strip()"), strings.Trim(s, cutset); got != want {
			t.Fatalf("strip(%q) = %q, want %q", s, got, want)
		}
		if got, want := evalExprSrc(t, q+".lstrip()"), strings.TrimLeft(s, cutset); got != want {
			t.Fatalf("lstrip(%q) = %q, want %q", s, got, want)
		}
		if got, want := evalExprSrc(t, q+".rstrip()"), strings.TrimRight(s, cutset); got != want {
			t.Fatalf("rstrip(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestSplitJoinRoundtrip checks sep.join(s.split(sep)) == s.
func TestSplitJoinRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		s := randomASCII(r, r.Intn(12))
		sep := string([]byte{byte('!' + r.Intn(14))})
		q, qs := quoteForMiniPy(s), quoteForMiniPy(sep)
		got := evalExprSrc(t, qs+".join("+q+".split("+qs+"))")
		if got != s {
			t.Fatalf("roundtrip(%q, sep=%q) = %q", s, sep, got)
		}
	}
}

// TestDictModelBased drives a MiniPy dict and a Go map with the same random
// operation sequence and compares observable behavior, across all
// optimization levels (hash neutralization etc. must not change semantics).
func TestDictModelBased(t *testing.T) {
	for _, cfg := range interp.OptLevels() {
		r := rand.New(rand.NewSource(31))
		prog := MustCompile(`
d = {}
def dset(k, v):
    d[k] = v
def dget(k, default):
    return d.get(k, default)
def ddel(k):
    if k in d:
        del d[k]
        return True
    return False
def dlen():
    return len(d)
`)
		m := lowlevel.NewConcreteMachine(nil, 1<<24)
		var vm *VM
		var out Outcome
		m.RunConcrete(func(mm *lowlevel.Machine) { vm, out = RunModule(prog, mm, nil, cfg) })
		if out.Exception != "" {
			t.Fatalf("setup: %s", out.Exception)
		}
		model := map[string]int64{}
		keys := []string{"a", "b", "cc", "dd", "e1", "e2", "f", ""}
		runOp := func(f func() (Value, *Exc)) Value {
			var v Value
			var exc *Exc
			st := m.RunConcrete(func(*lowlevel.Machine) { v, exc = f() })
			if st != lowlevel.RunCompleted || exc != nil {
				t.Fatalf("dict op failed: %v %v", st, exc)
			}
			return v
		}
		for op := 0; op < 300; op++ {
			k := keys[r.Intn(len(keys))]
			switch r.Intn(4) {
			case 0: // set
				val := r.Int63n(1000)
				runOp(func() (Value, *Exc) {
					return vm.CallFunction("dset", []Value{MkStr(k), MkInt(val)})
				})
				model[k] = val
			case 1: // get
				v := runOp(func() (Value, *Exc) {
					return vm.CallFunction("dget", []Value{MkStr(k), MkInt(-1)})
				})
				want, ok := model[k]
				if !ok {
					want = -1
				}
				if got := v.(IntVal).V.Int(); got != want {
					t.Fatalf("cfg %+v get(%q) = %d, want %d", cfg, k, got, want)
				}
			case 2: // delete
				v := runOp(func() (Value, *Exc) {
					return vm.CallFunction("ddel", []Value{MkStr(k)})
				})
				_, had := model[k]
				if got := v.(BoolVal).B.C != 0; got != had {
					t.Fatalf("cfg %+v del(%q) = %v, want %v", cfg, k, got, had)
				}
				delete(model, k)
			case 3: // len
				v := runOp(func() (Value, *Exc) {
					return vm.CallFunction("dlen", nil)
				})
				if got := v.(IntVal).V.Int(); got != int64(len(model)) {
					t.Fatalf("cfg %+v len = %d, want %d", cfg, got, len(model))
				}
			}
		}
	}
}

// TestIntStrRoundtrip checks int(str(n)) == n for random values incl. big.
func TestIntStrRoundtrip(t *testing.T) {
	f := func(n int32) bool {
		got := evalExprSrc(t, fmt.Sprintf("int(str(%d)) == %d", n, n))
		return got == "True"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	// Big values via promotion.
	for _, expr := range []string{
		"int(str(2000000000 * 3)) == 2000000000 * 3",
		"int(str(0 - 2000000000 * 7)) == 0 - 2000000000 * 7",
	} {
		if got := evalExprSrc(t, expr); got != "True" {
			t.Errorf("%s = %s", expr, got)
		}
	}
}

// TestSliceDifferential compares slicing against Go substring semantics with
// Python's clamping rules.
func TestSliceDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pySlice := func(s string, lo, hi int) string {
		n := len(s)
		if lo < 0 {
			lo += n
			if lo < 0 {
				lo = 0
			}
		}
		if hi < 0 {
			hi += n
			if hi < 0 {
				hi = 0
			}
		}
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		if hi < lo {
			hi = lo
		}
		return s[lo:hi]
	}
	for trial := 0; trial < 60; trial++ {
		s := randomASCII(r, 1+r.Intn(8))
		lo := r.Intn(2*len(s)+3) - len(s) - 1
		hi := r.Intn(2*len(s)+3) - len(s) - 1
		q := quoteForMiniPy(s)
		got := evalExprSrc(t, fmt.Sprintf("%s[%d:%d]", q, lo, hi))
		want := pySlice(s, lo, hi)
		if got != want {
			t.Fatalf("%q[%d:%d] = %q, want %q", s, lo, hi, got, want)
		}
	}
}
