package packages

import "chef/internal/symtest"

// FlagMazeSrc is the boolean-dominated deep-path benchmark target. It is
// deliberately not part of the Table 3 evaluation set: its shape is
// synthetic — every branch condition is either a single-byte equality
// against one constant or a propositional combination of such flags, with
// no symbolic arithmetic anywhere — so its DFS path conditions are long
// conjunctions of propositional re-tests. Each input byte is compared
// against exactly one constant. The re-test cascade after the forking
// prefix adds no new paths, only branch queries whose infeasible arm the
// solver must refute; it is the solver-bound DFS shape the deep-dfs
// benchmark workload measures.
const FlagMazeSrc = `
def drive(s):
    n = 0
    if s[0] == "k":
        n = n + 1
    if s[1] == "e":
        n = n + 2
    if s[2] == "y":
        n = n + 4
    if s[3] == "s":
        n = n + 8
    if s[0:2] == "ke":
        n = n + 100
        if s[2:4] == "ys":
            n = n + 200
            if s[0:4] == "keys":
                n = n + 300
    if s[4] == "t":
        n = n + 16
    if s[5] == "o":
        n = n + 32
    if s[6] == "n":
        n = n + 64
    if s[7] == "e":
        n = n + 128
    if s[4:6] == "to":
        n = n + 400
        if s[6:8] == "ne":
            n = n + 500
            if s[4:8] == "tone":
                n = n + 600
                if s == "keystone":
                    n = n + 1000
    if s[1:3] == "ey":
        n = n + 2000
    if s[3:5] == "st":
        n = n + 3000
    if s[5:7] == "on":
        n = n + 4000
    if s[2:6] == "ysto":
        n = n + 5000
    return n
`

// Benchmarks returns the bench-only targets: packages the deep-dfs benchmark
// workload measures that are not part of the Table 3 evaluation set (so
// All(), the tables and the figures stay exactly the paper's eleven).
func Benchmarks() []*Package {
	return []*Package{
		{
			Name: "flagmaze", Lang: Python, Type: "Bench",
			Desc:   "Boolean flag maze (deep-dfs solver workload)",
			Source: FlagMazeSrc, Entry: "drive",
			Inputs: []symtest.Input{symtest.Str("s", 8, "")},
		},
	}
}
