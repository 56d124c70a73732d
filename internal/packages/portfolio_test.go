package packages

import (
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
)

// TestPortfolioMergesAcrossBuilds exercises the §6.5 extension: a portfolio
// over the four optimization levels merges high-level paths across builds,
// matching or beating each individual member at the same total budget share.
func TestPortfolioMergesAcrossBuilds(t *testing.T) {
	p, _ := ByName("xlrd")
	var members []chef.PortfolioMember
	names := interp.OptLevelNames()
	for i, lvl := range interp.OptLevels() {
		members = append(members, chef.PortfolioMember{
			Name: names[i],
			Prog: p.Test(lvl).Program(),
		})
	}
	opts := chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 5, StepLimit: 30000}
	res := chef.RunPortfolio(members, opts, 0, 1_600_000)
	if len(res.PerBuild) != 4 || len(res.NewPerBuild) != 4 {
		t.Fatalf("per-build stats missing: %+v", res)
	}
	total := len(res.Tests)
	for i, n := range res.PerBuild {
		if total < n {
			t.Errorf("portfolio (%d paths) lost paths vs member %s (%d)", total, members[i].Name, n)
		}
	}
	// The merged set must be a real union: at least as large as the best
	// member, and the NewPerBuild counts must sum to the total.
	sum := 0
	for _, n := range res.NewPerBuild {
		sum += n
	}
	if sum != total {
		t.Errorf("NewPerBuild sums to %d, want %d", sum, total)
	}
}
