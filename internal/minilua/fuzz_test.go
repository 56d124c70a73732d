package minilua_test

import (
	"testing"

	"chef/internal/minilua"
	"chef/internal/packages"
)

// FuzzCompile drives the MiniLua lexer, parser and compiler with arbitrary
// source text. Malformed programs must surface as error returns — any panic
// is a front-end bug. The corpus is seeded with the real evaluation-package
// sources plus small probes for each syntactic corner.
//
// Run with: go test ./internal/minilua/ -fuzz FuzzCompile -fuzztime 5s
func FuzzCompile(f *testing.F) {
	for _, p := range packages.ByLang(packages.Lua) {
		f.Add(p.Source)
	}
	seeds := []string{
		"",
		"local function f(x) return x + 1 end\n",
		"local t = {a = 1, [2] = 'b', 'c'}\n",
		"for i = 1, 10, 2 do print(i) end\n",
		"for k, v in pairs({}) do end\n",
		"while true do break end\n",
		"repeat x = x - 1 until x == 0\n",
		"if not (x == 5) then y = 1 elseif z then y = 2 else y = 3 end\n",
		"local s = 'a' .. \"b\" .. [[long\nstring]]\n",
		"local ok, err = pcall(function() error('boom') end)\n",
		"t.x.y.z = t[1][2]\n",
		"s = #t .. (-x) ^ 2\n",
		"function t:m(a, ...) return self, a end\n",
		"--[[ block\ncomment ]] x = 1 -- line comment\n",
		"::label:: goto label\n",
		"local a, b, c = f()\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minilua.Compile(src)
		if err == nil && prog == nil {
			t.Fatal("Compile returned nil program without error")
		}
	})
}
