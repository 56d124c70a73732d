package main

import (
	"strings"
	"testing"

	"chef/internal/packages"
	"chef/internal/serve"
	"chef/internal/symtest"
)

// TestSeedZeroRejected: a job spec reads seed 0 as unset and runs
// serve.DefaultSeed, so chef refuses -seed 0 instead of running another
// seed under its name.
func TestSeedZeroRejected(t *testing.T) {
	spec := serve.JobSpec{Package: "simplejson"}
	if err := spec.Validate(); err != nil || spec.Seed != serve.DefaultSeed {
		t.Fatalf("spec with seed 0 validated to seed %d (err %v), want %d", spec.Seed, err, serve.DefaultSeed)
	}
	if err := checkSeed(0); err == nil || !strings.Contains(err.Error(), "-seed 0") {
		t.Fatalf("checkSeed(0) = %v, want an error naming -seed 0", err)
	}
	for _, seed := range []int64{1, 2, 42, -1} {
		if err := checkSeed(seed); err != nil {
			t.Fatalf("checkSeed(%d) = %v, want nil", seed, err)
		}
	}
}

func TestRenderInput(t *testing.T) {
	p, _ := packages.ByName("unicodecsv")
	tc := symtest.SerializedTest{
		Package: "unicodecsv",
		Input:   map[string]uint64{"line[0]:8": 'a', "line[1]:8": ',', "line[2]:8": 'b'},
	}
	got := renderInput(p, tc)
	if got != `line="a,b\x00\x00\x00"` {
		t.Errorf("renderInput = %q", got)
	}
	if renderInput(p, symtest.SerializedTest{Input: map[string]uint64{"bad": 1}}) != "?" {
		t.Error("bad input should render as ?")
	}
}
