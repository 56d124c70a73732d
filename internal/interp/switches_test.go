package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/symtest"
)

// switchCase is one tiny guest program per language that exercises one
// §4.2 byte-string primitive on a 2- or 3-byte symbolic input s (and, for
// the repeat case, a symbolic count n in [0, 3]).
type switchCase struct {
	name   string
	py     string
	lua    string
	inputs []symtest.Input
}

var switchCases = []switchCase{
	{
		name:   "eq",
		py:     "def f(s):\n    if s == \"ab\":\n        return 1\n    return 0\n",
		lua:    "function f(s)\n  if s == \"ab\" then\n    return 1\n  end\n  return 0\nend\n",
		inputs: []symtest.Input{symtest.Str("s", 2, "")},
	},
	{
		name:   "order",
		py:     "def f(s):\n    if s < \"b\":\n        return 1\n    return 0\n",
		lua:    "function f(s)\n  if s < \"b\" then\n    return 1\n  end\n  return 0\nend\n",
		inputs: []symtest.Input{symtest.Str("s", 2, "")},
	},
	{
		name:   "find",
		py:     "def f(s):\n    return s.find(\"b\")\n",
		lua:    "function f(s)\n  return string.find(s, \"b\")\nend\n",
		inputs: []symtest.Input{symtest.Str("s", 3, "")},
	},
	{
		name:   "index",
		py:     "def f(s):\n    if s[0] == \"a\":\n        return 1\n    return 0\n",
		lua:    "function f(s)\n  if string.char(string.byte(s, 1)) == \"a\" then\n    return 1\n  end\n  return 0\nend\n",
		inputs: []symtest.Input{symtest.Str("s", 2, "")},
	},
	{
		name:   "repeat",
		py:     "def f(s, n):\n    if len(s * n) == 4:\n        return 1\n    return 0\n",
		lua:    "function f(s, n)\n  if string.len(string.rep(s, n)) == 4 then\n    return 1\n  end\n  return 0\nend\n",
		inputs: []symtest.Input{symtest.Str("s", 2, ""), symtest.IntRange("n", 1, 0, 3)},
	},
	{
		name:   "case",
		py:     "def f(s):\n    if s.upper() == s.lower():\n        return 1\n    return 0\n",
		lua:    "function f(s)\n  if string.upper(s) == string.lower(s) then\n    return 1\n  end\n  return 0\nend\n",
		inputs: []symtest.Input{symtest.Str("s", 2, "")},
	},
	{
		name:   "bucket",
		py:     "def f(s):\n    d = {\"ab\": 1}\n    d[s] = 2\n    return len(d)\n",
		lua:    "function f(s)\n  local t = {}\n  t[\"ab\"] = 1\n  t[s] = 2\n  return t[\"ab\"]\nend\n",
		inputs: []symtest.Input{symtest.Str("s", 2, "")},
	},
}

// switchWant pins, per case, guest (MiniPy, MiniLua) and interp.OptLevels
// build, the LL paths, the virtual steps summed over runs, the virtual clock
// (steps plus solver work, such as upper_bound's) and the fork sites in
// order. The cumulative builds read:
//   - 0, vanilla: == and find fork per byte (str_eq_fast), s[0] forks per
//     feasible byte through the one-character intern table, a symbolic
//     repeat count forks per feasible size, lower/upper branch per byte,
//     and a symbolic hash forks per feasible bucket;
//   - 1, + symbolic pointer avoidance: no intern fork, and upper_bound plus
//     a silent concretization pins the repeat count without a fork;
//   - 2, + hash neutralization: no bucket fork, only the key comparison;
//   - 3, + fast-path elimination: ==, find, lower/upper and the key
//     comparison each reach the caller as one symbolic flag, so one branch
//     remains per decision (jump_cond, str_find_pos, str_eq_final,
//     table_key_cmp). Lexicographic order has no branch-free variant.
//
// Steps differ between the guests and, for MiniLua, between builds 1, 2
// and 3: every run builds its stdlib tables through the hash and the key
// comparison that the switches change.
var switchWant = map[string][2][4]string{
	"eq": {
		{ // MiniPy
			"paths=3 steps=79 clock=111 forks=str_eq_fast*5",
			"paths=3 steps=79 clock=111 forks=str_eq_fast*5",
			"paths=3 steps=79 clock=111 forks=str_eq_fast*5",
			"paths=2 steps=50 clock=82 forks=jump_cond*2",
		},
		{ // MiniLua
			"paths=3 steps=340 clock=372 forks=str_eq_fast*5",
			"paths=3 steps=340 clock=372 forks=str_eq_fast*5",
			"paths=3 steps=481 clock=513 forks=str_eq_fast*5",
			"paths=2 steps=378 clock=410 forks=jump_cond*2",
		},
	},
	"order": {
		{ // MiniPy
			"paths=3 steps=77 clock=122 forks=str_lt_byte*5",
			"paths=3 steps=77 clock=122 forks=str_lt_byte*5",
			"paths=3 steps=77 clock=122 forks=str_lt_byte*5",
			"paths=3 steps=77 clock=122 forks=str_lt_byte*5",
		},
		{ // MiniLua
			"paths=3 steps=338 clock=383 forks=str_lt_byte*5",
			"paths=3 steps=338 clock=383 forks=str_lt_byte*5",
			"paths=3 steps=479 clock=524 forks=str_lt_byte*5",
			"paths=3 steps=569 clock=614 forks=str_lt_byte*5",
		},
	},
	"find": {
		{ // MiniPy
			"paths=4 steps=120 clock=168 forks=str_eq_fast*9",
			"paths=4 steps=120 clock=168 forks=str_eq_fast*9",
			"paths=4 steps=120 clock=168 forks=str_eq_fast*9",
			"paths=4 steps=111 clock=159 forks=str_find_pos*9",
		},
		{ // MiniLua
			"paths=4 steps=536 clock=584 forks=str_eq_fast*9",
			"paths=4 steps=536 clock=584 forks=str_eq_fast*9",
			"paths=4 steps=740 clock=788 forks=str_eq_fast*9",
			"paths=4 steps=851 clock=899 forks=str_find_pos*9",
		},
	},
	"index": {
		{ // MiniPy
			"paths=163 steps=5379 clock=401396 forks=str_char_intern*163",
			"paths=2 steps=64 clock=80 forks=str_eq_fast*2",
			"paths=2 steps=64 clock=80 forks=str_eq_fast*2",
			"paths=2 steps=62 clock=78 forks=jump_cond*2",
		},
		{ // MiniLua
			"paths=160 steps=25440 clock=404458 forks=str_intern*160",
			"paths=2 steps=316 clock=332 forks=str_eq_fast*2",
			"paths=2 steps=402 clock=418 forks=str_eq_fast*2",
			"paths=2 steps=448 clock=464 forks=jump_cond*2",
		},
	},
	"repeat": {
		{ // MiniPy
			"paths=4 steps=146 clock=1403 forks=str_alloc_size*4",
			"paths=1 steps=36 clock=10153 forks=",
			"paths=1 steps=36 clock=10153 forks=",
			"paths=1 steps=36 clock=10153 forks=",
		},
		{ // MiniLua
			"paths=4 steps=622 clock=1879 forks=str_alloc*4",
			"paths=1 steps=155 clock=10272 forks=",
			"paths=1 steps=220 clock=10337 forks=",
			"paths=1 steps=245 clock=10362 forks=",
		},
	},
	"case": {
		{ // MiniPy
			"paths=9 steps=411 clock=670 forks=str_isalpha*8 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast",
			"paths=9 steps=411 clock=670 forks=str_isalpha*8 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast",
			"paths=9 steps=411 clock=670 forks=str_isalpha*8 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast str_isalpha*4 str_eq_fast",
			"paths=2 steps=82 clock=483 forks=jump_cond*2",
		},
		{ // MiniLua
			"paths=9 steps=1608 clock=1867 forks=str_case*8 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast",
			"paths=9 steps=1608 clock=1867 forks=str_case*8 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast",
			"paths=9 steps=2157 clock=2416 forks=str_case*8 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast str_case*4 str_eq_fast",
			"paths=2 steps=516 clock=917 forks=jump_cond*2",
		},
	},
	"bucket": {
		{ // MiniPy
			"paths=10 steps=419 clock=5393 forks=dict_bucket*7 str_eq_fast dict_bucket str_eq_fast*2 dict_bucket str_eq_fast*2 dict_bucket",
			"paths=10 steps=419 clock=5393 forks=dict_bucket*7 str_eq_fast dict_bucket str_eq_fast*2 dict_bucket str_eq_fast*2 dict_bucket",
			"paths=3 steps=124 clock=156 forks=str_eq_fast*5",
			"paths=2 steps=80 clock=112 forks=str_eq_final*2",
		},
		{ // MiniLua
			"paths=10 steps=1426 clock=4384 forks=table_bucket*8 str_eq_fast table_bucket str_eq_fast*2 table_bucket str_eq_fast*2",
			"paths=10 steps=1426 clock=4384 forks=table_bucket*8 str_eq_fast table_bucket str_eq_fast*2 table_bucket str_eq_fast*2",
			"paths=3 steps=559 clock=591 forks=str_eq_fast*5",
			"paths=2 steps=426 clock=458 forks=table_key_cmp*2",
		},
	},
}

// explore runs one DFS session and renders what exploration did: LL paths,
// the virtual steps of all runs, and the fork sites in order, run-length
// encoded by site name without its language prefix.
func explore(t *testing.T, prog chef.TestProgram, name func(lowlevel.LLPC) string) string {
	t.Helper()
	var c obs.Collect
	s := chef.NewSession(prog, chef.Options{Strategy: chef.StrategyDFS, Seed: 1, Tracer: &c})
	s.Run(400_000)
	var steps int64
	var forks []string
	for _, ev := range c.Events() {
		switch ev.Kind {
		case obs.KindRunEnd:
			steps += ev.Steps
		case obs.KindLLFork:
			site := name(lowlevel.LLPC(ev.LLPC))
			if _, short, ok := strings.Cut(site, "/"); ok {
				site = short
			} else {
				site = fmt.Sprintf("%#x", ev.LLPC)
			}
			forks = append(forks, site)
		}
	}
	var rle []string
	for i := 0; i < len(forks); {
		j := i
		for j < len(forks) && forks[j] == forks[i] {
			j++
		}
		if j-i == 1 {
			rle = append(rle, forks[i])
		} else {
			rle = append(rle, fmt.Sprintf("%s*%d", forks[i], j-i))
		}
		i = j
	}
	sum := s.Summary()
	return fmt.Sprintf("paths=%d steps=%d clock=%d forks=%s", sum.LLPaths, steps, sum.VirtTime, strings.Join(rle, " "))
}

// TestSwitchesShapeExploration pins what each §4.2 switch does to the
// exploration of each byte-string primitive, in both guests.
func TestSwitchesShapeExploration(t *testing.T) {
	for _, sc := range switchCases {
		want := switchWant[sc.name]
		for li, cfg := range interp.OptLevels() {
			py := &symtest.PyTest{Source: sc.py, Entry: "f", Inputs: sc.inputs, Config: cfg}
			if got := explore(t, py.Program(), minipy.LLPCName); got != want[0][li] {
				t.Errorf("%s, MiniPy, %s:\n got %s\nwant %s", sc.name, interp.OptLevelNames()[li], got, want[0][li])
			}
			lua := &symtest.LuaTest{Source: sc.lua, Entry: "f", Inputs: sc.inputs, Config: cfg}
			if got := explore(t, lua.Program(), minilua.LLPCName); got != want[1][li] {
				t.Errorf("%s, MiniLua, %s:\n got %s\nwant %s", sc.name, interp.OptLevelNames()[li], got, want[1][li])
			}
		}
	}
}
