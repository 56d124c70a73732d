package symtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
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
	for v, val := range in {
		out[fmt.Sprintf("%s[%d]:%d", v.Buf, v.Idx, v.W)] = val
	}
	return out
}

// DecodeInput parses the EncodeInput representation. Each key must be
// exactly buf[idx]:w, with idx a non-negative decimal and w a width of
// symexpr (1, 8, 16, 32 or 64).
func DecodeInput(m map[string]uint64) (symexpr.Assignment, error) {
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
		if _, err := fmt.Sscanf(k[lb:colon], "[%d]", &idx); err != nil || !isDecimal(k[lb+1:colon-1]) {
			return nil, fmt.Errorf("symtest: bad index in key %q", k)
		}
		if _, err := fmt.Sscanf(k[colon:], ":%d", &w); err != nil || !isDecimal(k[colon+1:]) ||
			!slices.Contains([]int{1, 8, 16, 32, 64}, w) {
			return nil, fmt.Errorf("symtest: bad width in key %q", k)
		}
		out[symexpr.Var{Buf: k[:lb], Idx: idx, W: symexpr.Width(w)}] = val
	}
	return out, nil
}

// isDecimal reports whether s is a non-empty run of ASCII digits.
func isDecimal(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }

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
// (fmt.Sprint of Input). Each input is rendered once, before sorting.
func SortTests(tests []SerializedTest) {
	keys := make([]string, len(tests))
	for i := range tests {
		keys[i] = fmt.Sprint(tests[i].Input)
	}
	sort.Sort(keyedTests{tests, keys})
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
