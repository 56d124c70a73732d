package symtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"chef/internal/symexpr"
)

// SerializedTest is the on-disk form of a generated test case, written by
// cmd/chef and consumed by cmd/chef-replay.
type SerializedTest struct {
	Package string            `json:"package"`
	Result  string            `json:"result"`
	Status  string            `json:"status"`
	Input   map[string]uint64 `json:"input"`
}

// EncodeInput flattens an assignment into a JSON-friendly map keyed by
// "buf[idx]:width".
func EncodeInput(in symexpr.Assignment) map[string]uint64 {
	out := make(map[string]uint64, len(in))
	var key []byte
	for v, val := range in {
		key = append(key[:0], v.Buf...)
		key = append(key, '[')
		key = strconv.AppendInt(key, int64(v.Idx), 10)
		key = append(key, "]:"...)
		key = strconv.AppendUint(key, uint64(v.W), 10)
		out[string(key)] = val
	}
	return out
}

// DecodeInput parses the EncodeInput representation. Each key must be
// exactly buf[idx]:w, with idx a non-negative decimal that fits an int and w
// a width of symexpr (1, 8, 16, 32 or 64).
func DecodeInput(m map[string]uint64) (symexpr.Assignment, error) {
	out := make(symexpr.Assignment, len(m))
	for k, val := range m {
		lb := strings.LastIndexByte(k, '[')
		colon := strings.LastIndexByte(k, ':')
		if lb < 0 || colon < lb {
			return nil, fmt.Errorf("symtest: bad input key %q", k)
		}
		idx, ok := 0, false
		if rb := colon - 1; rb > lb && k[rb] == ']' {
			idx, ok = decimal(k[lb+1 : rb])
		}
		if !ok {
			return nil, fmt.Errorf("symtest: bad index in key %q", k)
		}
		w, ok := decimal(k[colon+1:])
		if !ok || !slices.Contains([]int{1, 8, 16, 32, 64}, w) {
			return nil, fmt.Errorf("symtest: bad width in key %q", k)
		}
		out[symexpr.Var{Buf: k[:lb], Idx: idx, W: symexpr.Width(w)}] = val
	}
	return out, nil
}

// decimal parses s, a non-empty run of ASCII digits, as an int.
func decimal(s string) (int, bool) {
	if s == "" || strings.Trim(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// MarshalTests renders test cases as newline-delimited JSON.
func MarshalTests(tests []SerializedTest) ([]byte, error) {
	var buf bytes.Buffer
	for _, tc := range tests {
		// The output is stable without sorting Input here: encoding/json
		// writes map keys in sorted order.
		b, err := json.Marshal(tc)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// UnmarshalTests parses newline-delimited JSON test cases.
func UnmarshalTests(data []byte) ([]SerializedTest, error) {
	var out []SerializedTest
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var tc SerializedTest
		if err := json.Unmarshal([]byte(line), &tc); err != nil {
			return nil, err
		}
		out = append(out, tc)
	}
	return out, nil
}

// SortTests orders tests deterministically by result then input rendering
// (the text fmt.Sprint gives of Input). Each input is rendered once, before
// sorting.
func SortTests(tests []SerializedTest) {
	keys := make([]string, len(tests))
	var names []string
	var buf []byte
	for i := range tests {
		buf, names = appendInputKey(buf[:0], names[:0], tests[i].Input)
		keys[i] = string(buf)
	}
	sort.Sort(keyedTests{tests, keys})
}

// appendInputKey appends the rendering fmt.Sprint gives of in, "map[k:v
// ...]" in sorted key order, to buf. names is scratch space for the keys.
func appendInputKey(buf []byte, names []string, in map[string]uint64) ([]byte, []string) {
	for k := range in {
		names = append(names, k)
	}
	slices.Sort(names)
	buf = append(buf, "map["...)
	for i, k := range names {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, in[k], 10)
	}
	return append(buf, ']'), names
}

// keyedTests sorts tests by Result, then by a precomputed input rendering
// that Swap moves along with its test.
type keyedTests struct {
	tests []SerializedTest
	keys  []string
}

func (k keyedTests) Len() int { return len(k.tests) }

func (k keyedTests) Less(i, j int) bool {
	if k.tests[i].Result != k.tests[j].Result {
		return k.tests[i].Result < k.tests[j].Result
	}
	return k.keys[i] < k.keys[j]
}

func (k keyedTests) Swap(i, j int) {
	k.tests[i], k.tests[j] = k.tests[j], k.tests[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}
