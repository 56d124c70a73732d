// Quickstart: turn the MiniPy interpreter into a symbolic execution engine
// and test the paper's running example (Fig. 2), an email validator. CHEF
// explores the validator with a 6-byte symbolic email and produces one test
// case per distinct high-level path — including an input that actually
// reaches the "valid" outcome, which requires the solver to place an '@'
// at position 3 or later.
package main

import (
	"fmt"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/minipy"
	"chef/internal/symtest"
)

const validator = `
def validateEmail(email):
    at_sign_pos = email.find("@")
    if at_sign_pos < 3:
        raise InvalidEmailError("at-sign too early or missing")
    return "valid"
`

func main() {
	test := &symtest.PyTest{
		Source: validator,
		Entry:  "validateEmail",
		Inputs: []symtest.Input{symtest.Str("email", 6, "")},
		Config: interp.Optimized,
	}

	session := chef.NewSession(test.Program(), chef.Options{
		Strategy: chef.StrategyCUPAPath,
		Seed:     1,
	})
	tests := session.Run(3_000_000)

	stats := session.Engine().Stats()
	fmt.Printf("explored %d low-level paths, distilled %d high-level test cases:\n\n",
		stats.LLPaths, len(tests))
	for _, tc := range tests {
		email := minipy.ConcreteStringFromInput(tc.Input, "email", 6)
		// Confirm by replaying on the vanilla interpreter.
		rep := test.Replay(tc.Input, 1<<20)
		fmt.Printf("  email=%-10q  ->  %s (replay: %s)\n", email, tc.Result, rep.Result)
	}
	fmt.Printf("\nhigh-level CFG discovered: %s\n", session.CFG())
}
