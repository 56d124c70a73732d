// portfolio demonstrates the extension §6.5 of the paper proposes: for large
// packages whose behaviors respond differently to the interpreter
// optimizations (xlrd in the paper's Fig. 11), run a *portfolio* of
// interpreter builds and merge the high-level paths each build discovers.
package main

import (
	"fmt"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/packages"
)

func main() {
	pkg, _ := packages.ByName("xlrd")
	names := interp.OptLevelNames()

	var members []chef.PortfolioMember
	for i, lvl := range interp.OptLevels() {
		members = append(members, chef.PortfolioMember{
			Name: names[i],
			Prog: pkg.Test(lvl).Program(),
		})
	}
	const totalBudget = 2_000_000
	opts := chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 7, StepLimit: 40_000}
	res := chef.RunPortfolio(members, opts, 0, totalBudget)

	fmt.Printf("portfolio over %d interpreter builds of %s (budget %d, split equally):\n\n",
		len(members), pkg.Name, totalBudget)
	for i, m := range members {
		fmt.Printf("  %-30s %5d high-level paths, %4d new to the portfolio\n",
			m.Name, res.PerBuild[i], res.NewPerBuild[i])
	}
	fmt.Printf("\nmerged distinct high-level paths: %d\n\n", len(res.Tests))

	// Compare with spending the whole budget on the single best build.
	single := chef.NewSession(pkg.Test(interp.Optimized).Program(), opts)
	fmt.Printf("single fully-optimized build at the same total budget: %d paths\n",
		len(single.Run(totalBudget)))
	fmt.Println("\nEach build steers the search into different target behaviors (the")
	fmt.Println("paper's Fig. 11 anomaly); the portfolio trades raw path count for")
	fmt.Println("behavioral diversity across builds.")
}
