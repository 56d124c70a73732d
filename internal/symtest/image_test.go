package symtest_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/symexpr"
	"chef/internal/symtest"
)

// imageCases are the targets of the module-image differential test: every
// registered package, and programs that pin the image's edges — modules
// that raise or print (which run in full), module state that runs mutate,
// alias and rebind (which each run must get a fresh copy of), and objects
// used as keys.
func imageCases() map[string]packages.Test {
	cases := map[string]packages.Test{}
	for _, p := range packages.All() {
		cases[p.Name] = p.Test(interp.Vanilla)
	}
	in := []symtest.Input{symtest.Str("s", 2, "ab")}
	cases["py-raises"] = &symtest.PyTest{Source: "def f(s):\n    return 1\nraise ValueError('at import')\n", Entry: "f", Inputs: in}
	cases["py-prints"] = &symtest.PyTest{Source: "def f(s):\n    if s[0] == 'x':\n        return 1\n    return 0\nprint('loaded')\n", Entry: "f", Inputs: in}
	cases["lua-raises"] = &symtest.LuaTest{Source: "function f(s) return 1 end\nerror('at load')\n", Entry: "f", Inputs: in}
	cases["py-state"] = &symtest.PyTest{Source: `
ITEMS = [1, 2]
ALIAS = ITEMS
TABLE = {"a": ITEMS, "b": 2}
COUNT = 0
class Box:
    def __init__(self):
        self.n = 0
        self.items = ITEMS
    def bump(self):
        self.n = self.n + 1
        return self.n
BOX = Box()
ADD = ITEMS.append
BUMP = BOX.bump
def f(s):
    global COUNT
    COUNT = COUNT + 1
    ADD(3)
    TABLE[s[0]] = BUMP()
    if len(ALIAS) != 3 or len(BOX.items) != 3 or len(TABLE["a"]) != 3:
        raise ValueError("alias lost")
    if COUNT != 1 or BOX.n != 1:
        raise ValueError("state leaked")
    if TABLE.get("x") == 1:
        return 1
    return 0
`, Entry: "f", Inputs: in}
	cases["lua-state"] = &symtest.LuaTest{Source: `
Config = {count = 0, items = {1, 2}}
Alias = Config.items
Config.self = Config
Runs = 0
function f(s)
  local before = Config
  Config.count = Config.count + 1
  table.insert(Alias, 3)
  Runs = Runs + 1
  string.extra = Config
  if #Config.self.items ~= 3 or string.extra ~= before or Config ~= before then error("alias lost") end
  if Config.count ~= 1 or Runs ~= 1 then error("state leaked") end
  if string.byte(s, 1) == 120 then return 1 end
  return 0
end
`, Entry: "f", Inputs: in}
	// Only HashNeutralization admits an object as a key (the vanilla
	// modules raise), and each run needs the key its copy of the map holds
	// to be its own copy too.
	cases["py-object-key"] = &symtest.PyTest{Source: `
class Key:
    def __init__(self):
        self.seen = 0
KEY = Key()
MAP = {KEY: 1}
def f(s):
    if MAP[KEY] != 1:
        raise ValueError("key lost")
    for k in MAP:
        k.seen = k.seen + 1
    if KEY.seen != 1:
        raise ValueError("state leaked")
    if s[0] == 'x':
        return 1
    return 0
`, Entry: "f", Inputs: in}
	cases["lua-table-key"] = &symtest.LuaTest{Source: `
Key = {seen = 0}
Map = {}
Map[Key] = 1
function f(s)
  if Map[Key] ~= 1 then error("key lost") end
  for k, v in pairs(Map) do k.seen = k.seen + 1 end
  if Key.seen ~= 1 then error("state leaked") end
  if string.byte(s, 1) == 120 then return 1 end
  return 0
end
`, Entry: "f", Inputs: in}
	return cases
}

// withConfig returns t's test under cfg.
func withConfig(t packages.Test, cfg interp.Config) packages.Test {
	switch t := t.(type) {
	case *symtest.PyTest:
		c := *t
		c.Config = cfg
		return &c
	case *symtest.LuaTest:
		c := *t
		c.Config = cfg
		return &c
	}
	panic("not a guest test")
}

// exploration is what a session shows of its runs: the tests (HL signature,
// length, result, status, input and virtual time), the summary (LL paths,
// runs, forks, CFG nodes and edges, virtual time), the trace without wall
// clock (every run's steps and LL decision trail, every fork and HL edge)
// and the log_pc count.
type exploration struct {
	tests   []chef.TestCase
	summary chef.Summary
	trace   string
	logpc   int64
}

func explore(prog chef.TestProgram, shards int) exploration {
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	tr.DisableWallClock()
	reg := obs.NewRegistry()
	opts := chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 5, StepLimit: 60_000, Tracer: tr, Metrics: reg}
	var e exploration
	if shards > 1 {
		s := chef.NewShardedSession(prog, opts, shards)
		e.tests = s.Run(120_000)
		e.summary = s.Summary()
	} else {
		s := chef.NewSession(prog, opts)
		e.tests = s.Run(120_000)
		e.summary = s.Summary()
	}
	tr.Close()
	e.trace = buf.String()
	e.logpc = reg.Counter(obs.MChefLogPC).Value()
	return e
}

// TestImageStartMatchesFreshStart: runs and replays that start from a
// module image are indistinguishable from runs that execute the module, for
// every package under both builds, and for sharded sessions whose cells
// copy one image at once.
func TestImageStartMatchesFreshStart(t *testing.T) {
	cases := imageCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := cases[name]
		for _, build := range []struct {
			name string
			cfg  interp.Config
		}{{"vanilla", interp.Vanilla}, {"optimized", interp.Optimized}} {
			t.Run(name+"/"+build.name, func(t *testing.T) {
				t.Parallel()
				test := withConfig(base, build.cfg)
				if err := test.Compile(); err != nil {
					t.Fatal(err)
				}
				// The sharded session's cells start runs from one image
				// concurrently.
				shards := 1
				if len(name)%2 == 0 {
					shards = 2
				}
				got := explore(test.Program(), shards)
				want := explore(symtest.FreshProgram(test), shards)
				if !reflect.DeepEqual(got.tests, want.tests) {
					t.Errorf("tests differ:\n got %+v\nwant %+v", got.tests, want.tests)
				}
				if got.summary != want.summary {
					t.Errorf("summary %+v, want %+v", got.summary, want.summary)
				}
				if got.logpc != want.logpc || got.logpc == 0 {
					t.Errorf("chef.logpc %d, want %d (> 0)", got.logpc, want.logpc)
				}
				if got.trace != want.trace {
					t.Errorf("traces differ (%d and %d bytes)", len(got.trace), len(want.trace))
				}
				vanilla := withConfig(base, interp.Vanilla)
				inputs := []symexpr.Assignment{nil}
				for _, tc := range got.tests {
					inputs = append(inputs, tc.Input)
				}
				// The low step limits hang replays in the entry and in the
				// module.
				for _, limit := range []int64{60_000, 150, 10} {
					for _, in := range inputs {
						g := vanilla.Replay(in, limit)
						w := symtest.FreshReplay(vanilla, in, limit)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("replay of %v at step limit %d:\n got %+v\nwant %+v", in, limit, g, w)
						}
					}
				}
			})
		}
	}
}
