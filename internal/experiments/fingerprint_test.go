package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"chef/internal/packages"
	"chef/internal/serve"
	"chef/internal/symtest"
)

// TestGoldenExplorationFingerprint pins the exploration of every registered
// package, at a small budget, under {optimized, vanilla} x {plain, 2 shards}.
// One line per cell holds the engine's runs and forks, the virtual clock and
// a hash of the tests in the `chef -out` encoding, so any refactor that moves
// the engine's output by one byte, or any dependence on scheduling, fails
// here. CI runs it at GOMAXPROCS=1 and 4.
//
//	go test ./internal/experiments/ -run Fingerprint -update
func TestGoldenExplorationFingerprint(t *testing.T) {
	var sb strings.Builder
	for _, p := range packages.All() {
		for _, vanilla := range []bool{false, true} {
			for _, shards := range []int{0, 2} {
				spec := serve.JobSpec{Package: p.Name, Budget: 100_000, Seed: 7, Vanilla: vanilla, Shards: shards}
				res, err := serve.Execute(context.Background(), spec, serve.ExecOptions{})
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				data, err := symtest.MarshalTests(res.Tests)
				if err != nil {
					t.Fatal(err)
				}
				build, mode := "optimized", "plain"
				if vanilla {
					build = "vanilla"
				}
				if shards > 0 {
					mode = "shards=2"
				}
				sum, hash := res.Summary, sha256.Sum256(data)
				fmt.Fprintf(&sb, "%-12s %-9s %-8s tests=%-3d runs=%-4d forks=%-5d clock=%-6d out=%x\n",
					p.Name, build, mode, len(res.Tests), sum.Runs, sum.Forks, sum.VirtTime, hash[:8])
			}
		}
	}
	checkGolden(t, "fingerprint", sb.String())
}
