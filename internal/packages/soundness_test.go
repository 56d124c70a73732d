package packages

import (
	"testing"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// TestSoundnessPythonPackages asserts the paper's soundness property over
// every Python package of Table 3; see checkSoundness.
func TestSoundnessPythonPackages(t *testing.T) { checkSoundness(t, Python) }

// TestSoundnessLuaPackages is the Lua counterpart.
func TestSoundnessLuaPackages(t *testing.T) { checkSoundness(t, Lua) }

// checkSoundness explores every package of one language under the vanilla
// and the optimized build and replays each generated test case concretely
// on the vanilla interpreter at the session's step limit: it must reproduce
// the recorded result and run status — no infeasible paths are ever
// reported. A recorded hang must replay as a hang. This is the acceptance
// rule of perfbench's replay check.
func checkSoundness(t *testing.T, lang Lang) {
	const stepLimit = 60_000
	for _, p := range ByLang(lang) {
		for _, build := range []struct {
			name string
			cfg  interp.Config
		}{{"vanilla", interp.Vanilla}, {"optimized", interp.Optimized}} {
			t.Run(p.Name+"/"+build.name, func(t *testing.T) {
				t.Parallel()
				s := chef.NewSession(p.Test(build.cfg).Program(),
					chef.Options{Strategy: chef.StrategyCUPAPath, Seed: 3, StepLimit: stepLimit})
				tests := s.Run(250_000)
				if len(tests) == 0 {
					t.Fatal("no tests generated")
				}
				replay := p.Test(interp.Vanilla)
				for _, tc := range tests {
					rep := replay.Replay(tc.Input, stepLimit)
					if tc.Status == lowlevel.RunHang {
						if rep.Status != lowlevel.RunHang || rep.Result != "hang" {
							t.Errorf("recorded hang replayed as %q (%v), input %v", rep.Result, rep.Status, tc.Input)
						}
						continue
					}
					if rep.Result != tc.Result || rep.Status != tc.Status {
						t.Errorf("recorded %q (%v), replayed %q (%v), input %v",
							tc.Result, tc.Status, rep.Result, rep.Status, tc.Input)
					}
				}
			})
		}
	}
}
