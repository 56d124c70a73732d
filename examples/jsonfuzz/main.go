// jsonfuzz reproduces the paper's §6.2 bug-detection result: symbolically
// executing the Lua sb-JSON package discovers that a malformed /* or //
// comment sends the parser into an infinite loop — a denial-of-service
// vector, found fully automatically via the per-path timeout specification.
package main

import (
	"fmt"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/minilua"
	"chef/internal/packages"
)

func main() {
	pkg, _ := packages.ByName("JSON")
	test := pkg.Test(interp.Optimized)

	session := chef.NewSession(test.Program(), chef.Options{
		Strategy:  chef.StrategyCUPAPath,
		Seed:      7,
		StepLimit: 40_000, // the paper's 60-second per-path timeout, in virtual steps
	})
	tests := session.Run(2_000_000)

	fmt.Printf("generated %d test cases for sb-JSON\n", len(tests))
	hangs := 0
	for _, tc := range tests {
		if tc.Status != lowlevel.RunHang {
			continue
		}
		hangs++
		input := minilua.SymbolicString(
			lowlevel.NewConcreteMachine(tc.Input, 1000), "s", 5, "")
		fmt.Printf("  HANG on input %q — parser spins past end-of-string\n", input.Concrete())
	}
	if hangs == 0 {
		fmt.Println("no hang found at this budget; try a larger -budget")
		return
	}
	fmt.Printf("\n%d hang-inducing inputs found.\n", hangs)
	fmt.Println("Root cause: sb-JSON accepts /* and // comments (not in the JSON standard);")
	fmt.Println("an unterminated comment makes the scanner wait forever for another token.")
}
