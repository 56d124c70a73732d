package minipy_test

import (
	"testing"

	"chef/internal/minipy"
	"chef/internal/packages"
)

// FuzzCompile drives the MiniPy lexer, parser and compiler with arbitrary
// source text. Malformed programs must surface as error returns — any panic
// is a front-end bug. The corpus is seeded with the real evaluation-package
// sources plus small probes for each syntactic corner.
//
// Run with: go test ./internal/minipy/ -fuzz FuzzCompile -fuzztime 5s
func FuzzCompile(f *testing.F) {
	for _, p := range packages.ByLang(packages.Python) {
		f.Add(p.Source)
	}
	seeds := []string{
		"",
		"def f(x):\n    return x + 1\n",
		"class C(Exception):\n    pass\n",
		"x = {'a': 1}\nfor k in x:\n    print(k)\n",
		"while True:\n    break\n",
		"def f(*args, **kw):\n    pass\n",
		"try:\n    raise ValueError('x')\nexcept ValueError as e:\n    pass\n",
		"x = [i for i in range(3)]\n",
		"if not x == 5:\n    pass\nelif y:\n    pass\nelse:\n    pass\n",
		"x = 'a' 'b'\ny = \"\\x41\\n\"\n",
		"lambda a, b=1: a - b\n",
		"x = 1 if y else 2\n",
		"def f():\n  if a:\n      b\n \tc\n",
		"x=1;y=2\n",
		"x = (((((1)))))\n",
		"# comment\n\n\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minipy.Compile(src)
		if err == nil && prog == nil {
			t.Fatal("Compile returned nil program without error")
		}
	})
}
