package experiments

import (
	"fmt"
	"strings"

	"chef/internal/chef"
	"chef/internal/dedicated"
	"chef/internal/interp"
	"chef/internal/minipy"
	"chef/internal/packages"
	"chef/internal/symexpr"
	"chef/internal/symtest"
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
	session := chef.NewSession(pt.Program(), chef.Options{
		Strategy: chef.StrategyCUPAPath, Seed: b.Seed, StepLimit: b.StepLimit,
	})
	chefTests := session.Run(b.Time)
	out.ChefHLPaths = len(chefTests)

	// Dedicated side.
	src := packages.MacLearningFlatSource(nFrames)
	prog, err := minipy.Compile(src)
	if err != nil {
		return out, err
	}
	ded := dedicated.New(prog, dedicated.Options{BugCompat: bugCompat})
	var args []dedicated.Value
	for i := 0; i < nFrames; i++ {
		args = append(args,
			dedSymStr(fmt.Sprintf("s%d", i), macLen),
			dedSymStr(fmt.Sprintf("d%d", i), macLen))
	}
	if err := ded.Explore("drive_frames", args); err != nil {
		return out, err
	}
	out.DedicatedTests = len(ded.Tests())

	// Track dedicated tests along CHEF's HL paths: replay each input on the
	// instrumented interpreter and record the resulting HL signature.
	chefSigs := map[uint64]bool{}
	for _, tc := range chefTests {
		chefSigs[tc.HLSig] = true
	}
	hit := map[uint64]bool{}
	for _, tc := range ded.Tests() {
		sig := hlSigOf(pt, tc.Input)
		if hit[sig] {
			out.DuplicateTests++
			continue
		}
		hit[sig] = true
	}
	for sig := range chefSigs {
		if !hit[sig] {
			out.MissedHLPaths++
		}
	}
	out.CoveredHLPaths = out.ChefHLPaths - out.MissedHLPaths
	return out, nil
}

// hlSigOf replays an input through a fresh single-run session to compute the
// high-level path signature the instrumented interpreter assigns to it.
func hlSigOf(pt *symtest.PyTest, input symexpr.Assignment) uint64 {
	s := chef.NewSession(pt.Program(), chef.Options{Strategy: chef.StrategyDFS, Seed: 1})
	return s.ReplaySig(input)
}

func dedSymStr(name string, n int) dedicated.Value {
	b := make([]*symexpr.Expr, n)
	for i := range b {
		b[i] = symexpr.NewVar(symexpr.Var{Buf: name, Idx: i, W: symexpr.W8})
	}
	return dedicated.StrV{B: b}
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
