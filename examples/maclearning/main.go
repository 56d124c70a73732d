// maclearning runs the §6.6 comparison workload: the MAC-learning OpenFlow
// controller explored by both the CHEF-derived engine (interpreting the
// interpreter) and the dedicated NICE-like engine (interpreting the program
// directly), and reports the per-path cost ratio — a single point of the
// paper's Figure 12.
package main

import (
	"fmt"

	"chef/internal/chef"
	"chef/internal/dedicated"
	"chef/internal/interp"
	"chef/internal/minipy"
	"chef/internal/packages"
	"chef/internal/symexpr"
)

func main() {
	const frames, macLen = 2, 2

	// Dedicated engine.
	src := packages.MacLearningFlatSource(frames)
	prog := minipy.MustCompile(src)
	ded := dedicated.New(prog, dedicated.Options{})
	var args []dedicated.Value
	for i := 0; i < frames; i++ {
		args = append(args, symStr(fmt.Sprintf("s%d", i), macLen), symStr(fmt.Sprintf("d%d", i), macLen))
	}
	if err := ded.Explore("drive_frames", args); err != nil {
		panic(err)
	}
	dedPaths := len(ded.Tests())
	dedTime := ded.VirtualTime()
	fmt.Printf("dedicated engine: %d paths in %d virtual time (%d per path)\n",
		dedPaths, dedTime, dedTime/int64(max(1, dedPaths)))

	// CHEF-derived engine on the same workload.
	pt := packages.MacLearningFlatTest(frames, macLen, interp.Optimized)
	session := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 1})
	tests := session.Run(6_000_000)
	chefTime := session.Engine().Clock()
	fmt.Printf("CHEF engine:      %d paths in %d virtual time (%d per path)\n",
		len(tests), chefTime, chefTime/int64(max(1, len(tests))))

	over := float64(chefTime) / float64(max(1, len(tests))) /
		(float64(dedTime) / float64(max(1, dedPaths)))
	fmt.Printf("\nCHEF per-path overhead: %.1fx — the price of executing the interpreter\n", over)
	fmt.Println("instead of a hand-written engine, in exchange for full language fidelity.")
}

func symStr(name string, n int) dedicated.Value {
	b := make([]*symexpr.Expr, n)
	for i := range b {
		b[i] = symexpr.NewVar(symexpr.Var{Buf: name, Idx: i, W: symexpr.W8})
	}
	return dedicated.StrV{B: b}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
