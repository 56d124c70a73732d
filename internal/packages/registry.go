package packages

import (
	"fmt"
	"strings"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/symexpr"
	"chef/internal/symtest"
)

// Lang identifies the target language of a package.
type Lang uint8

// Target languages.
const (
	Python Lang = iota
	Lua
)

// Langs lists the target languages.
var Langs = []Lang{Python, Lua}

func (l Lang) String() string { return [...]string{Python: "Python", Lua: "Lua"}[l] }

// ParseLang maps a wire language name, a Lang's String in lower case
// ("python" or "lua"), to its Lang.
func ParseLang(name string) (Lang, bool) {
	for _, l := range Langs {
		if strings.ToLower(l.String()) == name {
			return l, true
		}
	}
	return 0, false
}

// Package describes one evaluation target of §6.1: its source, its symbolic
// test, and the metadata Table 3 reports.
type Package struct {
	Name   string
	Lang   Lang
	Type   string // System / Web / Office, as in Table 3
	Desc   string
	Source string
	Entry  string
	Inputs []symtest.Input
	// DocumentedExceptions lists the exception types the package's
	// documentation declares, plus the "common Python exceptions" the paper
	// treats as documented (KeyError, ValueError, TypeError).
	DocumentedExceptions []string
}

// DocumentedCommon are the common exceptions the paper always counts as
// documented.
var DocumentedCommon = []string{"KeyError", "ValueError", "TypeError"}

// IsDocumented reports whether an exception type is documented for this
// package.
func (p *Package) IsDocumented(exc string) bool {
	for _, d := range p.DocumentedExceptions {
		if d == exc {
			return true
		}
	}
	for _, d := range DocumentedCommon {
		if d == exc {
			return true
		}
	}
	return false
}

// LOC counts the non-blank, non-comment source lines of the package, as the
// cloc tool would.
func (p *Package) LOC() int {
	n := 0
	for _, line := range strings.Split(p.Source, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") || strings.HasPrefix(t, "--") {
			continue
		}
		n++
	}
	return n
}

// CoverableLOC counts lines carrying compiled instructions (the paper's
// "coverable LOC" column). Compilation goes through the interned
// process-wide cache, so concurrent table builders share one compile.
func (p *Package) CoverableLOC() int {
	return len(p.Test(interp.Vanilla).CoverableLines())
}

// Test is a package's symbolic test in either guest language, a
// *symtest.PyTest or a *symtest.LuaTest: the session program that explores
// it and the vanilla replay that confirms its test cases.
type Test interface {
	Compile() error
	Program() chef.TestProgram
	Replay(input symexpr.Assignment, stepLimit int64) symtest.ReplayResult
	CoverableLines() map[int]bool
}

// Test builds the package's symbolic test at an optimization level. It is
// the one place outside symtest that maps a guest language to its test
// library.
func (p *Package) Test(cfg interp.Config) Test {
	if p.Lang == Python {
		return &symtest.PyTest{Source: p.Source, Entry: p.Entry, Inputs: p.Inputs, Config: cfg}
	}
	return &symtest.LuaTest{Source: p.Source, Entry: p.Entry, Inputs: p.Inputs, Config: cfg}
}

// PyTest is Test for a Python package; it panics on a Lua one.
func (p *Package) PyTest(cfg interp.Config) *symtest.PyTest { return p.Test(cfg).(*symtest.PyTest) }

// LuaTest is Test for a Lua package; it panics on a Python one.
func (p *Package) LuaTest(cfg interp.Config) *symtest.LuaTest { return p.Test(cfg).(*symtest.LuaTest) }

// All returns the eleven evaluation packages in Table 3's order.
func All() []*Package {
	return []*Package{
		{
			Name: "argparse", Lang: Python, Type: "System",
			Desc:   "Command-line interface",
			Source: ArgparseSrc, Entry: "drive",
			Inputs: []symtest.Input{
				symtest.Str("arg1_name", 3, "--x"),
				symtest.Str("arg2_name", 3, "in"),
				symtest.Str("arg1", 3, ""),
				symtest.Str("arg2", 3, ""),
			},
			DocumentedExceptions: []string{"ArgumentError"},
		},
		{
			Name: "ConfigParser", Lang: Python, Type: "System",
			Desc:   "Configuration file parser",
			Source: ConfigParserSrc, Entry: "drive",
			Inputs:               []symtest.Input{symtest.Str("text", 8, "[a]\nk=v\n")},
			DocumentedExceptions: []string{"ConfigError"},
		},
		{
			Name: "HTMLParser", Lang: Python, Type: "Web",
			Desc:   "HTML parser",
			Source: HTMLParserSrc, Entry: "drive",
			Inputs:               []symtest.Input{symtest.Str("data", 8, "<a></a>")},
			DocumentedExceptions: []string{"ParseError"},
		},
		{
			Name: "simplejson", Lang: Python, Type: "Web",
			Desc:   "JSON format parser",
			Source: SimpleJSONSrc, Entry: "drive",
			Inputs:               []symtest.Input{symtest.Str("text", 6, "{}")},
			DocumentedExceptions: []string{"ValueError"},
		},
		{
			Name: "unicodecsv", Lang: Python, Type: "Office",
			Desc:   "CSV file parser",
			Source: UnicodeCSVSrc, Entry: "drive",
			Inputs:               []symtest.Input{symtest.Str("line", 6, "a,b")},
			DocumentedExceptions: []string{"CSVError"},
		},
		{
			Name: "xlrd", Lang: Python, Type: "Office",
			Desc:   "Spreadsheet reader",
			Source: XlrdSrc, Entry: "drive",
			Inputs:               []symtest.Input{symtest.Str("data", 12, "PK")},
			DocumentedExceptions: []string{"XLRDError"},
		},
		{
			Name: "cliargs", Lang: Lua, Type: "System",
			Desc:   "Command-line interface",
			Source: CliargsSrc, Entry: "drive",
			Inputs: []symtest.Input{
				symtest.Str("optname", 4, "--o"),
				symtest.Str("a1", 4, ""),
				symtest.Str("a2", 4, ""),
			},
		},
		{
			Name: "haml", Lang: Lua, Type: "Web",
			Desc:   "HTML description markup",
			Source: HamlSrc, Entry: "drive",
			Inputs: []symtest.Input{symtest.Str("source", 6, "%p hi")},
		},
		{
			Name: "JSON", Lang: Lua, Type: "Web",
			Desc:   "JSON format parser (with the comment-hang bug)",
			Source: SbJSONSrc, Entry: "drive",
			Inputs: []symtest.Input{symtest.Str("s", 5, "1")},
		},
		{
			Name: "markdown", Lang: Lua, Type: "Web",
			Desc:   "Text-to-HTML conversion",
			Source: MarkdownSrc, Entry: "drive",
			Inputs: []symtest.Input{symtest.Str("source", 6, "# h")},
		},
		{
			Name: "moonscript", Lang: Lua, Type: "System",
			Desc:   "Language that compiles to Lua",
			Source: MoonscriptSrc, Entry: "drive",
			Inputs: []symtest.Input{symtest.Str("source", 8, "x = 1")},
		},
	}
}

// ByName returns a registered package, searching the Table 3 set and the
// bench-only targets (see Benchmarks).
func ByName(name string) (*Package, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range Benchmarks() {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// ByLang returns the Table 3 targets written in l.
func ByLang(l Lang) []*Package {
	var out []*Package
	for _, p := range All() {
		if p.Lang == l {
			out = append(out, p)
		}
	}
	return out
}

// MacLearningTest builds the §6.6 NICE-comparison workload: a MiniPy
// MAC-learning controller fed nFrames symbolic Ethernet frames (each frame
// contributes a src and dst MAC of macLen symbolic bytes).
func MacLearningTest(nFrames, macLen int, cfg interp.Config) *symtest.PyTest {
	var sb strings.Builder
	sb.WriteString(MacLearningSrc)
	sb.WriteString("\ndef drive_frames(")
	var params []string
	for i := 0; i < nFrames; i++ {
		params = append(params, fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i))
	}
	sb.WriteString(strings.Join(params, ", "))
	sb.WriteString("):\n    frames = [")
	sb.WriteString(strings.Join(params, ", "))
	sb.WriteString("]\n    return drive(frames)\n")
	var inputs []symtest.Input
	for i := 0; i < nFrames; i++ {
		inputs = append(inputs,
			symtest.Str(fmt.Sprintf("s%d", i), macLen, ""),
			symtest.Str(fmt.Sprintf("d%d", i), macLen, ""))
	}
	return &symtest.PyTest{Source: sb.String(), Entry: "drive_frames", Inputs: inputs, Config: cfg}
}

// MacLearningFlatSource generates the class-free, loop-free MAC-learning
// controller used for the §6.6 engine comparison: the dedicated engine's
// supported subset excludes classes and loops, so both engines run this
// straight-line version for a fair per-path cost comparison.
func MacLearningFlatSource(nFrames int) string {
	var sb strings.Builder
	sb.WriteString("def drive_frames(")
	var params []string
	for i := 0; i < nFrames; i++ {
		params = append(params, fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i))
	}
	sb.WriteString(strings.Join(params, ", "))
	sb.WriteString("):\n    table = {}\n    out = 0\n")
	for i := 0; i < nFrames; i++ {
		sb.WriteString(fmt.Sprintf("    table[s%d] = 1\n", i))
		sb.WriteString(fmt.Sprintf("    if d%d in table:\n        out = out + 1\n", i))
	}
	sb.WriteString("    return out\n")
	return sb.String()
}

// MacLearningFlatTest wraps the flat controller as a symbolic test for the
// CHEF side of the comparison.
func MacLearningFlatTest(nFrames, macLen int, cfg interp.Config) *symtest.PyTest {
	var inputs []symtest.Input
	for i := 0; i < nFrames; i++ {
		inputs = append(inputs,
			symtest.Str(fmt.Sprintf("s%d", i), macLen, ""),
			symtest.Str(fmt.Sprintf("d%d", i), macLen, ""))
	}
	return &symtest.PyTest{Source: MacLearningFlatSource(nFrames), Entry: "drive_frames", Inputs: inputs, Config: cfg}
}
