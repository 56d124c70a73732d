package faults

import (
	"strings"
	"testing"

	"chef/internal/obs"
)

func TestParseEmptyDisables(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q) error: %v", spec, err)
		}
		if spec == "" || strings.TrimSpace(spec) == "" {
			if p != nil {
				t.Fatalf("Parse(%q) = %+v, want nil", spec, p)
			}
		}
		if p.Injector("x") != nil && len(p.Rules) == 0 {
			t.Fatalf("rule-less plan produced a non-nil injector")
		}
	}
}

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("seed=7; solver.unknown:p=0.05; persist.write:err@n=3; persist.write:short@every=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 3 {
		t.Fatalf("plan = %+v", p)
	}
	want := []Rule{
		{Site: SolverUnknown, P: 0.05},
		{Site: PersistWrite, N: 3},
		{Site: PersistWrite, Short: true, Every: 2},
	}
	for i, r := range p.Rules {
		if r != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"bogus.site:p=0.5",
		"solver.unknown:p=1.5",
		"solver.unknown:p=0",
		"solver.unknown:n=0",
		"solver.unknown:short@n=1", // modes are persist.write-only
		"worker.stall",             // no such site: a worker is a goroutine
		"worker.stall:session=1",
		"solver.unknown:session=1", // there is no session= trigger
		"persist.write:wat=3",
		"seed=xyz",
		"solver.unknown:p",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.Fire(SolverUnknown) || in.FireWrite() != WriteOK {
		t.Fatal("nil injector fired")
	}
	if in.Injected() != 0 {
		t.Fatal("nil injector reported activity")
	}
	in.Instrument(obs.NewRegistry()) // must not panic
}

func TestOccurrenceTriggers(t *testing.T) {
	p, err := Parse("persist.write:err@n=2;persist.write:short@every=5")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Injector("s")
	var got []WriteMode
	for i := 0; i < 10; i++ {
		got = append(got, in.FireWrite())
	}
	for i, m := range got {
		occ := i + 1
		want := WriteOK
		switch {
		case occ == 2:
			want = WriteErr
		case occ%5 == 0:
			want = WriteShort
		}
		if m != want {
			t.Fatalf("occurrence %d: mode %d, want %d (all: %v)", occ, m, want, got)
		}
	}
	if in.Injected() != 3 {
		t.Fatalf("injected = %d, want 3", in.Injected())
	}
}

// Fault decisions must be a pure function of (seed, scope, occurrence
// index): two injectors with the same scope replay the same schedule, and
// distinct scopes draw from independent streams.
func TestProbabilisticDeterminismPerScope(t *testing.T) {
	p, err := Parse("seed=99;solver.unknown:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	fire := func(scope string) []bool {
		in := p.Injector(scope)
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Fire(SolverUnknown)
		}
		return out
	}
	a1, a2, b := fire("alpha"), fire("alpha"), fire("beta")
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same scope diverged at occurrence %d", i)
		}
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct scopes produced identical schedules (streams not independent)")
	}
	fired := 0
	for _, f := range a1 {
		if f {
			fired++
		}
	}
	if fired < 20 || fired > 120 {
		t.Fatalf("p=0.3 fired %d/200 times, far from expectation", fired)
	}
}

// A deterministic rule match must not shift the probabilistic stream: the
// stream position depends only on the occurrence index.
func TestDeterministicRuleDoesNotPerturbStream(t *testing.T) {
	pOnly, err := Parse("seed=5;solver.unknown:p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	both, err := Parse("seed=5;solver.unknown:n=3;solver.unknown:p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	a, b := pOnly.Injector("s"), both.Injector("s")
	for i := 1; i <= 100; i++ {
		fa, fb := a.Fire(SolverUnknown), b.Fire(SolverUnknown)
		if i == 3 {
			if !fb {
				t.Fatal("n=3 rule did not fire")
			}
			continue
		}
		if fa != fb {
			t.Fatalf("occurrence %d: p-stream perturbed by the n= rule (%v vs %v)", i, fa, fb)
		}
	}
}

func TestInstrumentCountsBySite(t *testing.T) {
	p, err := Parse("persist.write:err@n=1;solver.unknown:n=2")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Injector("s")
	reg := obs.NewRegistry()
	in.Instrument(reg)
	in.FireWrite()
	in.Fire(SolverUnknown)
	in.Fire(SolverUnknown)
	if got := reg.Counter(obs.MFaultsInjected).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", obs.MFaultsInjected, got)
	}
	if got := reg.Counter(obs.MFaultsPersistWrite).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MFaultsPersistWrite, got)
	}
	if got := reg.Counter(obs.MFaultsSolverUnknown).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MFaultsSolverUnknown, got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	spec := "seed=7;solver.unknown:p=0.05"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != spec {
		t.Fatalf("String() = %q, want %q", p.String(), spec)
	}
	var nilPlan *Plan
	if nilPlan.String() != "" {
		t.Fatal("nil plan String() non-empty")
	}
}
