package serve

import (
	"testing"

	"chef/internal/chef"
)

func TestParseStrategy(t *testing.T) {
	cases := map[string]chef.StrategyKind{
		"random":        chef.StrategyRandom,
		"cupa-path":     chef.StrategyCUPAPath,
		"cupa-coverage": chef.StrategyCUPACoverage,
		"dfs":           chef.StrategyDFS,
		"bfs":           chef.StrategyBFS,
	}
	for name, want := range cases {
		got, ok := ParseStrategy(name)
		if !ok || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseStrategy("nonsense"); ok {
		t.Error("unknown strategy accepted")
	}
}
