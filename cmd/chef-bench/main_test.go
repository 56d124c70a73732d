package main

import (
	"testing"

	"chef/internal/chef"
	"chef/internal/experiments"
	"chef/internal/packages"
)

// TestCellConfigLanguage: a cell records its package's language by name,
// for Python and Lua targets alike.
func TestCellConfigLanguage(t *testing.T) {
	for name, want := range map[string]string{"simplejson": "python", "JSON": "lua"} {
		p, ok := packages.ByName(name)
		if !ok {
			t.Fatalf("unknown package %s", name)
		}
		c := cellConfig(p, experiments.Configuration{Strategy: chef.StrategyDFS}, experiments.Budgets{Reps: 1}, "cold", 1, 0)
		if c.Language != want {
			t.Errorf("%s: language %q, want %q", name, c.Language, want)
		}
		if c.Name != name+"/dfs/cold/w1" {
			t.Errorf("%s: cell name %q", name, c.Name)
		}
	}
}
