// argparse mirrors the paper's Fig. 7: a symbolic test that exercises the
// argparse package with two 3-character symbolic argument declarations and
// two 3-character symbolic arguments — 12 symbolic bytes total — and prints
// the distinct behaviors CHEF discovers, including the exception types of
// Table 3.
package main

import (
	"fmt"
	"sort"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/packages"
)

func main() {
	pkg, _ := packages.ByName("argparse")
	test := pkg.Test(interp.Optimized)

	session := chef.NewSession(test.Program(), chef.Options{
		Strategy: chef.StrategyCUPACoverage,
		Seed:     11,
	})
	tests := session.Run(4_000_000)

	outcomes := map[string]int{}
	for _, tc := range tests {
		outcomes[tc.Result]++
	}
	fmt.Printf("argparse: %d high-level test cases, %d distinct outcomes\n\n",
		len(tests), len(outcomes))
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		doc := ""
		const p = "exception:"
		if len(k) > len(p) && k[:len(p)] == p {
			if pkg.IsDocumented(k[len(p):]) {
				doc = " (documented)"
			} else {
				doc = " (UNDOCUMENTED)"
			}
		}
		fmt.Printf("  %4d x %s%s\n", outcomes[k], k, doc)
	}
	cov := map[int]bool{}
	for _, tc := range tests {
		rep := test.Replay(tc.Input, 1<<20)
		for l := range rep.Lines {
			cov[l] = true
		}
	}
	fmt.Printf("\nline coverage: %d/%d coverable lines\n", len(cov), pkg.CoverableLOC())
}
