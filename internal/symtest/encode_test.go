package symtest

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
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
	} {
		if _, err := DecodeInput(bad); err == nil {
			t.Errorf("expected error for %v", bad)
		}
	}
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
