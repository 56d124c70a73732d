package packages

import (
	"testing"

	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
	"chef/internal/symtest"
)

func TestAllPackagesCompile(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Test(interp.Vanilla).Compile(); err != nil {
				t.Fatalf("compile: %v", err)
			}
			if p.LOC() < 20 {
				t.Errorf("package suspiciously small: %d LOC", p.LOC())
			}
			if p.CoverableLOC() == 0 {
				t.Error("no coverable lines")
			}
		})
	}
}

// replayWith runs a package's entry concretely with the given string inputs.
func replayWith(t *testing.T, p *Package, vals ...string) string {
	t.Helper()
	in := symexpr.Assignment{}
	for i, decl := range p.Inputs {
		if i >= len(vals) {
			break
		}
		for j := 0; j < decl.Len; j++ {
			var b byte
			if j < len(vals[i]) {
				b = vals[i][j]
			}
			in[symexpr.Var{Buf: decl.Name, Idx: j, W: symexpr.W8}] = uint64(b)
		}
	}
	return p.Test(interp.Optimized).Replay(in, 1<<21).Result
}

func mustPkg(t *testing.T, name string) *Package {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("package %s not registered", name)
	}
	return p
}

func TestArgparseBehaviors(t *testing.T) {
	p := mustPkg(t, "argparse")
	if got := replayWith(t, p, "--x", "in\x00", "--x", "5\x00\x00"); got != "ok" {
		// "--x 5" consumes the option with its value; positional missing is
		// tolerated (filled empty).
		t.Errorf("option parse: %s", got)
	}
	if got := replayWith(t, p, "--x", "in\x00", "--z", "v\x00\x00"); got != "exception:ArgumentError" {
		t.Errorf("unknown option: %s", got)
	}
	if got := replayWith(t, p, "\x00\x00\x00", "in\x00", "a\x00\x00", "b\x00\x00"); got != "exception:ArgumentError" {
		t.Errorf("empty arg name: %s", got)
	}
}

func TestConfigParserBehaviors(t *testing.T) {
	p := mustPkg(t, "ConfigParser")
	if got := replayWith(t, p, "[a]\nk=v\n"); got != "ok" {
		t.Errorf("valid config: %s", got)
	}
	if got := replayWith(t, p, "[a\nk=v\n\x00\x00"); got != "exception:ConfigError" {
		t.Errorf("unterminated section: %s", got)
	}
	if got := replayWith(t, p, "k=v\n\x00\x00\x00"); got != "exception:ConfigError" {
		t.Errorf("option before section: %s", got)
	}
}

func TestHTMLParserBehaviors(t *testing.T) {
	p := mustPkg(t, "HTMLParser")
	if got := replayWith(t, p, "<a></a>\x00"); got != "ok" {
		t.Errorf("valid html: %s", got)
	}
	if got := replayWith(t, p, "<a>\x00\x00\x00\x00\x00"); got != "exception:ParseError" {
		t.Errorf("unclosed tag: %s", got)
	}
	if got := replayWith(t, p, "<a></b>\x00"); got != "exception:ParseError" {
		t.Errorf("mismatched tag: %s", got)
	}
}

func TestSimpleJSONBehaviors(t *testing.T) {
	p := mustPkg(t, "simplejson")
	for _, ok := range []string{"{}\x00\x00\x00\x00", "[1,2]\x00", "true\x00\x00", "-12\x00\x00\x00", "\x22ab\x22\x00\x00"} {
		if got := replayWith(t, p, ok); got != "ok" {
			t.Errorf("%q: %s", ok, got)
		}
	}
	for _, bad := range []string{"{\x00\x00\x00\x00\x00", "[1,\x00\x00\x00", "tru\x00\x00\x00", "\x00\x00\x00\x00\x00\x00"} {
		if got := replayWith(t, p, bad); got != "exception:ValueError" {
			t.Errorf("%q: %s, want ValueError", bad, got)
		}
	}
}

func TestUnicodeCSVBehaviors(t *testing.T) {
	p := mustPkg(t, "unicodecsv")
	if got := replayWith(t, p, "a,b,c\x00"); got != "ok" {
		t.Errorf("simple csv: %s", got)
	}
	if got := replayWith(t, p, "\x22a,b\x22\x00"); got != "ok" {
		t.Errorf("quoted csv: %s", got)
	}
	if got := replayWith(t, p, "\x22abcd\x00"); got != "exception:CSVError" {
		t.Errorf("unterminated quote: %s", got)
	}
}

func TestXlrdBehaviors(t *testing.T) {
	p := mustPkg(t, "xlrd")
	// Valid: PK container, BOF record (len 0), EOF record (len 0).
	if got := replayWith(t, p, "PK\x09\x00\x0a\x00\x00\x00"); got != "ok" {
		t.Errorf("minimal workbook: %s", got)
	}
	// Bad container magic: undocumented BadZipfile escapes.
	if got := replayWith(t, p, "PX\x09\x00\x0a\x00\x00\x00"); got != "exception:BadZipfile" {
		t.Errorf("bad magic: %s", got)
	}
	// Garbage after EOF is ignored (EOF returns early).
	if got := replayWith(t, p, "PK\x09\x00\x0a\x00\x00\x09"); got != "ok" {
		t.Errorf("trailing garbage after EOF: %s", got)
	}
	// A row record shorter than its header demands: IndexError escapes.
	if got := replayWith(t, p, "PK\x09\x00\x08\x01\x05\x00"); got != "exception:IndexError" {
		t.Errorf("short row record: %s", got)
	}
	// Record payload overflow: undocumented 'error' escapes.
	if got := replayWith(t, p, "PK\x09\x00\x0c\x09\x00\x00"); got != "exception:error" {
		t.Errorf("overflowing record: %s", got)
	}
}

func TestCliargsBehaviors(t *testing.T) {
	p := mustPkg(t, "cliargs")
	if got := replayWith(t, p, "--o\x00", "file", "\x00\x00\x00\x00"); got != "ok" {
		t.Errorf("positional: %s", got)
	}
	if got := replayWith(t, p, "-o\x00\x00", "a\x00\x00\x00", "b\x00\x00\x00"); got[:5] != "error" {
		t.Errorf("bad option decl: %s", got)
	}
}

func TestHamlBehaviors(t *testing.T) {
	p := mustPkg(t, "haml")
	if got := replayWith(t, p, "%p hi\x00"); got != "ok" {
		t.Errorf("inline tag: %s", got)
	}
	if got := replayWith(t, p, "%p\x00\x00\x00\x00"); got[:5] != "error" {
		t.Errorf("unclosed block tag: %s", got)
	}
}

func TestSbJSONCommentHang(t *testing.T) {
	// The paper's bug: a leading unterminated comment hangs the parser.
	p := mustPkg(t, "JSON")
	lt := p.Test(interp.Optimized)
	in := symexpr.Assignment{}
	for j, b := range []byte("/*x\x00\x00") {
		in[symexpr.Var{Buf: "s", Idx: j, W: symexpr.W8}] = uint64(b)
	}
	rep := lt.Replay(in, 200000)
	if rep.Status != lowlevel.RunHang {
		t.Fatalf("/*x should hang, got status %v result %q", rep.Status, rep.Result)
	}
	// A well-formed comment before a value terminates.
	in2 := symexpr.Assignment{}
	for j, b := range []byte("//\n1\x00") {
		in2[symexpr.Var{Buf: "s", Idx: j, W: symexpr.W8}] = uint64(b)
	}
	rep2 := lt.Replay(in2, 200000)
	if rep2.Status == lowlevel.RunHang {
		t.Fatal("terminated comment must not hang")
	}
	if rep2.Result != "ok" {
		t.Fatalf("//\\n1 should parse, got %q", rep2.Result)
	}
	// Plain values parse.
	in3 := symexpr.Assignment{}
	for j, b := range []byte("[1,2]") {
		in3[symexpr.Var{Buf: "s", Idx: j, W: symexpr.W8}] = uint64(b)
	}
	if rep3 := lt.Replay(in3, 200000); rep3.Result != "ok" {
		t.Fatalf("[1,2]: %q", rep3.Result)
	}
}

func TestMarkdownBehaviors(t *testing.T) {
	p := mustPkg(t, "markdown")
	if got := replayWith(t, p, "# h\x00\x00\x00"); got != "ok" {
		t.Errorf("heading: %s", got)
	}
	if got := replayWith(t, p, "- x\x00\x00\x00"); got != "ok" {
		t.Errorf("list: %s", got)
	}
	if got := replayWith(t, p, "a *b\x00\x00"); got[:5] != "error" {
		t.Errorf("unterminated emphasis: %s", got)
	}
}

func TestMoonscriptBehaviors(t *testing.T) {
	p := mustPkg(t, "moonscript")
	if got := replayWith(t, p, "x = 1\x00\x00\x00"); got != "ok" {
		t.Errorf("assignment: %s", got)
	}
	if got := replayWith(t, p, " x = 1\x00\x00"); got[:5] != "error" {
		t.Errorf("odd indent: %s", got)
	}
}

func TestMacLearningWorkload(t *testing.T) {
	pt := MacLearningTest(2, 2, interp.Optimized)
	in := symexpr.Assignment{}
	set := func(name, val string) {
		for j := 0; j < 2; j++ {
			var b byte
			if j < len(val) {
				b = val[j]
			}
			in[symexpr.Var{Buf: name, Idx: j, W: symexpr.W8}] = uint64(b)
		}
	}
	set("s0", "aa")
	set("d0", "bb")
	set("s1", "bb")
	set("d1", "aa") // learned from frame 0's src
	rep := pt.Replay(in, 1<<21)
	if rep.Result != "ok" {
		t.Fatalf("mac learning replay: %s", rep.Result)
	}
}

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registered %d packages, want 11", len(all))
	}
	if len(ByLang(Python)) != 6 || len(ByLang(Lua)) != 5 {
		t.Fatalf("language split wrong: %d py, %d lua", len(ByLang(Python)), len(ByLang(Lua)))
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should miss unknown packages")
	}
	p := mustPkg(t, "xlrd")
	if !p.IsDocumented("XLRDError") || !p.IsDocumented("ValueError") {
		t.Error("documented classification wrong")
	}
	if p.IsDocumented("BadZipfile") || p.IsDocumented("AssertionError") {
		t.Error("undocumented classification wrong")
	}
}

var _ = symtest.Str

func TestXlrdAssertionErrorReachable(t *testing.T) {
	// The fifth exception type of Table 3 (AssertionError, rows out of
	// order) needs two full ROW records: PK + ROW(rownum=1) + ROW(rownum=0)
	// after a BOF. It fits exactly in the 12-byte symbolic buffer, so the
	// engine can reach it at larger budgets; this test pins feasibility.
	p := mustPkg(t, "xlrd")
	input := "PK\x09\x00\x08\x02\x01\x00\x08\x02\x00\x00"
	if got := replayWith(t, p, input); got != "exception:AssertionError" {
		t.Fatalf("rows-out-of-order input: %s, want AssertionError", got)
	}
}

func TestArgparseTypeErrorReachable(t *testing.T) {
	// "--n 5" parses the option value with int(); the drive summary then
	// calls len() on the int — a TypeError escaping the API (one of the
	// paper's four argparse exception types).
	p := mustPkg(t, "argparse")
	if got := replayWith(t, p, "--n", "in\x00", "--n", "5\x00\x00"); got != "exception:TypeError" {
		t.Fatalf("int option summary: %s, want TypeError", got)
	}
	// And the ValueError from a malformed int option value.
	if got := replayWith(t, p, "--n", "in\x00", "--n", "x\x00\x00"); got != "exception:ValueError" {
		t.Fatalf("bad int option: %s, want ValueError", got)
	}
}
