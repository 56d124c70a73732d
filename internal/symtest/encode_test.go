package symtest

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"chef/internal/symexpr"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	in := symexpr.Assignment{
		{Buf: "email", Idx: 0, W: symexpr.W8}:     uint64('a'),
		{Buf: "email", Idx: 5, W: symexpr.W8}:     uint64('@'),
		{Buf: "count", Idx: 0, W: symexpr.W32}:    0xFFFF_FFFF,
		{Buf: "odd[name]", Idx: 2, W: symexpr.W8}: 7,
	}
	enc := EncodeInput(in)
	dec, err := DecodeInput(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(in) {
		t.Fatalf("roundtrip lost entries: %d vs %d", len(dec), len(in))
	}
	for k, v := range in {
		if dec[k] != v {
			t.Errorf("key %v: got %d, want %d", k, dec[k], v)
		}
	}
}

func TestDecodeInputErrors(t *testing.T) {
	for _, bad := range []map[string]uint64{
		{"noindex:8": 1},
		{"name[zz]:8": 1},
		{"name[0]": 1},
		{"buf[3]x:8": 1},
		{"buf[3]:8abc": 1},
		{"buf[-1]:8": 1},
		{"buf[0]:0": 1},
		{"buf[0]:13": 1},
		{"buf[0]:4096": 1},
		{"buf[0]:257": 1},
		{"buf[99999999999999999999]:8": 1},
	} {
		if _, err := DecodeInput(bad); err == nil {
			t.Errorf("expected error for %v", bad)
		}
		checkDecodeMatchesReference(t, bad)
	}
}

// decodeInputReference is the fmt.Sscanf decoder DecodeInput replaced, with
// the digit checks that make each key exactly buf[idx]:w.
func decodeInputReference(m map[string]uint64) (symexpr.Assignment, error) {
	out := symexpr.Assignment{}
	for k, val := range m {
		lb := strings.LastIndexByte(k, '[')
		colon := strings.LastIndexByte(k, ':')
		if lb < 0 || colon < lb {
			return nil, fmt.Errorf("symtest: bad input key %q", k)
		}
		// Sscanf ignores trailing bytes and takes signs; the digit checks
		// make the key exactly buf[idx]:w.
		var idx, w int
		if _, err := fmt.Sscanf(k[lb:colon], "[%d]", &idx); err != nil || !isDecimalRef(k[lb+1:colon-1]) {
			return nil, fmt.Errorf("symtest: bad index in key %q", k)
		}
		if _, err := fmt.Sscanf(k[colon:], ":%d", &w); err != nil || !isDecimalRef(k[colon+1:]) ||
			!slices.Contains([]int{1, 8, 16, 32, 64}, w) {
			return nil, fmt.Errorf("symtest: bad width in key %q", k)
		}
		out[symexpr.Var{Buf: k[:lb], Idx: idx, W: symexpr.Width(w)}] = val
	}
	return out, nil
}

// isDecimalRef reports whether s is a non-empty run of ASCII digits.
func isDecimalRef(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }

// checkDecodeMatchesReference requires DecodeInput and the reference to
// decode m to the same assignment, or to fail with the same error text.
func checkDecodeMatchesReference(t *testing.T, m map[string]uint64) {
	t.Helper()
	got, gerr := DecodeInput(m)
	want, werr := decodeInputReference(m)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%v: error %v, reference error %v", m, gerr, werr)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%v: decoded %v, reference %v", m, got, want)
	}
}

// FuzzDecodeInput pins the hand-written key parser to the Sscanf reference
// on arbitrary keys.
func FuzzDecodeInput(f *testing.F) {
	for _, k := range []string{
		"email[0]:8", "odd[name][2]:8", "x[0]:32", "b[007]:08", "noindex:8",
		"name[zz]:8", "name[0]", "buf[3]x:8", "buf[3]:8abc", "buf[-1]:8",
		"buf[+1]:8", "buf[ 1]:8", "buf[]:8", "buf[:8", "buf[1]:", "buf[0]:0",
		"buf[0]:4096", "buf[99999999999999999999]:8", "buf[9223372036854775807]:64",
		"a:b[1]:1", "buf[1]:99999999999999999999",
	} {
		f.Add(k, uint64(7))
	}
	f.Fuzz(func(t *testing.T, key string, val uint64) {
		checkDecodeMatchesReference(t, map[string]uint64{key: val})
	})
}

func TestMarshalUnmarshalTests(t *testing.T) {
	tests := []SerializedTest{
		{Package: "p", Result: "ok", Status: "completed", Input: map[string]uint64{"a[0]:8": 65}},
		{Package: "p", Result: "exception:ValueError", Status: "completed", Input: map[string]uint64{"a[0]:8": 0}},
	}
	SortTests(tests)
	data, err := MarshalTests(tests)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTests(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Result != tests[0].Result || back[1].Input["a[0]:8"] != tests[1].Input["a[0]:8"] {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
	if _, err := UnmarshalTests([]byte("{bad json")); err == nil {
		t.Error("expected unmarshal error")
	}
}

// sortTestsReference is the comparator SortTests replaced: it renders both
// inputs with fmt.Sprint on every comparison.
func sortTestsReference(tests []SerializedTest) {
	sort.Slice(tests, func(i, j int) bool {
		if tests[i].Result != tests[j].Result {
			return tests[i].Result < tests[j].Result
		}
		return fmt.Sprint(tests[i].Input) < fmt.Sprint(tests[j].Input)
	})
}

// TestSortTestsMatchesComparator: the keyed sort leaves random test sets in
// exactly the reference order, including ties (equal result and input,
// different status) that only the sort algorithm itself orders.
func TestSortTestsMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	results := []string{"", "ok", "ValueError", "{\"a\": 1}"}
	statuses := []string{"ok", "exception", "hang", "crash"}
	inputs := []map[string]uint64{nil, {}, {"in[0]:8": 1}, {"in[0]:8": 2}, {"in[0]:8": 1, "in[1]:8": 0}}
	for iter := 0; iter < 3000; iter++ {
		n := rng.Intn(80)
		var tests []SerializedTest
		if n > 0 || rng.Intn(2) == 0 {
			tests = make([]SerializedTest, 0, n)
		}
		for i := 0; i < n; i++ {
			in := inputs[rng.Intn(len(inputs))]
			if rng.Intn(4) == 0 {
				in = map[string]uint64{}
				for k := rng.Intn(4); k > 0; k-- {
					in[fmt.Sprintf("in[%d]:8", rng.Intn(4))] = uint64(rng.Intn(3))
				}
			}
			tests = append(tests, SerializedTest{
				Package: "p",
				Result:  results[rng.Intn(len(results))],
				Status:  statuses[rng.Intn(len(statuses))],
				Input:   in,
			})
		}
		want := append([]SerializedTest(nil), tests...)
		sortTestsReference(want)
		SortTests(tests)
		if len(tests) != len(want) {
			t.Fatalf("set %d: length %d, want %d", iter, len(tests), len(want))
		}
		for i := range want {
			g, w := tests[i], want[i]
			if g.Package != w.Package || g.Result != w.Result || g.Status != w.Status || !maps.Equal(g.Input, w.Input) {
				t.Fatalf("set %d: element %d is %+v, want %+v", iter, i, g, w)
			}
		}
	}
}

// TestInputKeysMatchFmt: EncodeInput's keys and SortTests' input rendering,
// built without fmt, are the strings the fmt forms give, and the tests sort
// into the fmt-keyed reference order, over random assignments.
func TestInputKeysMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bufs := []string{"email", "in", "", "odd[name]", "a b:c", "é", "x]:8"}
	widths := []symexpr.Width{symexpr.W1, symexpr.W8, symexpr.W16, symexpr.W32, symexpr.W64}
	results := []string{"ok", "exception:ValueError"}
	for iter := 0; iter < 500; iter++ {
		var tests []SerializedTest
		for n := rng.Intn(12); n > 0; n-- {
			in := symexpr.Assignment{}
			for k := rng.Intn(6); k > 0; k-- {
				v := symexpr.Var{Buf: bufs[rng.Intn(len(bufs))], Idx: rng.Intn(40), W: widths[rng.Intn(len(widths))]}
				if rng.Intn(8) == 0 {
					v.Idx = rng.Int()
				}
				in[v] = rng.Uint64() >> uint(rng.Intn(64))
			}
			enc := EncodeInput(in)
			want := make(map[string]uint64, len(in))
			for v, val := range in {
				want[fmt.Sprintf("%s[%d]:%d", v.Buf, v.Idx, v.W)] = val
			}
			if !maps.Equal(enc, want) {
				t.Fatalf("EncodeInput(%v) = %v, want %v", in, enc, want)
			}
			if rng.Intn(10) == 0 {
				enc = nil
			}
			if got, _ := appendInputKey(nil, nil, enc); string(got) != fmt.Sprint(enc) {
				t.Fatalf("input key %q, want %q", got, fmt.Sprint(enc))
			}
			tests = append(tests, SerializedTest{Package: "p", Result: results[rng.Intn(len(results))], Status: "ok", Input: enc})
		}
		want := slices.Clone(tests)
		sortTestsReference(want)
		SortTests(tests)
		for i := range want {
			if tests[i].Result != want[i].Result || !maps.Equal(tests[i].Input, want[i].Input) {
				t.Fatalf("set %d: element %d is %+v, want %+v", iter, i, tests[i], want[i])
			}
		}
	}
}
