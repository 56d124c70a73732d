package experiments

import (
	"fmt"
	"strings"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/packages"
)

// CrossCheckResult reports the §6.6 reference-implementation workflow: the
// test cases of a dedicated engine are tracked along the high-level paths
// CHEF generates for the same target, to determine duplicates and missed
// feasible paths.
type CrossCheckResult struct {
	ChefHLPaths    int // distinct HL paths CHEF found
	DedicatedTests int // test cases the dedicated engine produced
	CoveredHLPaths int // CHEF HL paths hit by replaying the dedicated tests
	DuplicateTests int // dedicated tests that replayed onto an already-hit path
	MissedHLPaths  int // CHEF HL paths no dedicated test reaches
}

// CrossCheck runs both engines on the flat MAC-learning controller and
// replays the dedicated engine's inputs through the vanilla interpreter,
// mapping each onto CHEF's high-level paths.
func CrossCheck(nFrames, macLen int, bugCompat bool, b Budgets) (CrossCheckResult, error) {
	var out CrossCheckResult

	// CHEF side: ground-truth high-level paths.
	pt := packages.MacLearningFlatTest(nFrames, macLen, interp.Optimized)
	iso := b.session(chef.StrategyCUPAPath, b.Seed, fmt.Sprintf("maclearning-%d/crosscheck/%d", nFrames, b.Seed))
	defer iso.Merge()
	session := chef.NewSession(pt.Program(), iso.Opts)
	chefTests := session.Run(b.Time)
	out.ChefHLPaths = len(chefTests)

	// Dedicated side.
	ded, err := exploreDedicated(nFrames, macLen, bugCompat)
	if err != nil {
		return out, err
	}
	out.DedicatedTests = len(ded.Tests())

	// Track dedicated tests along CHEF's HL paths: replay each input on the
	// instrumented interpreter, through CHEF's own session, and record the
	// resulting HL signature. CHEF's tests are one per distinct HL path.
	hit := map[uint64]bool{}
	for _, tc := range ded.Tests() {
		sig := session.ReplaySig(tc.Input)
		if hit[sig] {
			out.DuplicateTests++
		}
		hit[sig] = true
	}
	for _, tc := range chefTests {
		if !hit[tc.HLSig] {
			out.MissedHLPaths++
		}
	}
	out.CoveredHLPaths = out.ChefHLPaths - out.MissedHLPaths
	return out, nil
}

// RenderCrossCheck formats a cross-check result.
func RenderCrossCheck(label string, r CrossCheckResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", label)
	fmt.Fprintf(&sb, "  CHEF high-level paths:        %d\n", r.ChefHLPaths)
	fmt.Fprintf(&sb, "  dedicated test cases:         %d\n", r.DedicatedTests)
	fmt.Fprintf(&sb, "  HL paths covered by them:     %d\n", r.CoveredHLPaths)
	fmt.Fprintf(&sb, "  redundant dedicated tests:    %d\n", r.DuplicateTests)
	fmt.Fprintf(&sb, "  feasible HL paths missed:     %d\n", r.MissedHLPaths)
	return sb.String()
}
