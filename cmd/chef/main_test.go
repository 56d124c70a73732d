package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strconv"
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
	if err := checkArgs(0, 1, 1); err == nil || !strings.Contains(err.Error(), "-seed 0") {
		t.Fatalf("checkArgs(seed 0) = %v, want an error naming -seed 0", err)
	}
	for _, seed := range []int64{1, 2, 42, -1} {
		if err := checkArgs(seed, 1, 1); err != nil {
			t.Fatalf("checkArgs(seed %d) = %v, want nil", seed, err)
		}
	}
}

// TestBudgetAndStepLimitRejected: a job spec reads a budget or step limit
// <= 0 as unset and runs the default, so chef refuses such values instead
// of silently running a different exploration.
func TestBudgetAndStepLimitRejected(t *testing.T) {
	spec := serve.JobSpec{Package: "simplejson", Budget: -5, StepLimit: 0}
	if err := spec.Validate(); err != nil || spec.Budget != serve.DefaultBudget || spec.StepLimit != serve.DefaultStepLimit {
		t.Fatalf("spec validated to budget %d, step limit %d (err %v), want the defaults", spec.Budget, spec.StepLimit, err)
	}
	for _, tc := range []struct {
		budget, stepLimit int64
		flag              string
	}{
		{0, 60_000, "-budget 0"},
		{-5, 60_000, "-budget -5"},
		{100_000, 0, "-steplimit 0"},
		{100_000, -1, "-steplimit -1"},
	} {
		if err := checkArgs(1, tc.budget, tc.stepLimit); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("checkArgs(budget %d, steplimit %d) = %v, want an error naming %s", tc.budget, tc.stepLimit, err, tc.flag)
		}
	}
	if err := checkArgs(1, 1, 1); err != nil {
		t.Fatalf("checkArgs(1, 1, 1) = %v, want nil", err)
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

// TestFaultsLineCountsFinalFlush: under a sustained persist.write fault the
// store gives up in the final flush that Finish's Close does, after the
// run. chef exits 1, and its faults line, printed once the store is closed,
// counts the write attempts and the lost entries that the close error
// reports.
func TestFaultsLineCountsFinalFlush(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-package", "simplejson", "-budget", "200000",
		"-cachefile", filepath.Join(t.TempDir(), "g.bin"), "-faults", "persist.write:err"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d under a sustained persist write fault, want 1; stderr:\n%s", code, stderr.String())
	}
	closeErr := regexp.MustCompile(`after (\d+) failed write attempts \((\d+) entries lost\)`).FindStringSubmatch(stderr.String())
	if closeErr == nil {
		t.Fatalf("stderr names no lost entries:\n%s", stderr.String())
	}
	line := regexp.MustCompile(`faults: (\d+) injected; .*; persist retries \d+, lost (\d+)\n`).FindStringSubmatch(stdout.String())
	if line == nil {
		t.Fatalf("no faults line with persist counts in stdout:\n%s", stdout.String())
	}
	if n, _ := strconv.Atoi(closeErr[2]); n == 0 {
		t.Fatalf("the close error reports 0 entries lost: %s", closeErr[0])
	}
	if line[1] != closeErr[1] || line[2] != closeErr[2] {
		t.Fatalf("faults line %q reports %s injected and %s lost; the store's close error reports %s failed attempts and %s lost",
			strings.TrimSpace(line[0]), line[1], line[2], closeErr[1], closeErr[2])
	}
}
