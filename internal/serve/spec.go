// Package serve turns the single-process CHEF engine into a long-running
// service: exploration jobs (guest language + program source + budget/seed/
// strategy options) arrive over HTTP/JSON, run on a bounded worker pool
// backed by one shared warm persistent store and the process-wide program
// interner, and report their results through the job API.
//
// The package is split along the job lifecycle: JobSpec (this file) is the
// wire format and its validation, Execute (exec.go) runs one job — it is the
// single entry point shared by the server's workers and the chef CLI, which
// is what makes a served run byte-identical to a CLI run by construction —
// Server (server.go) owns the queue, the worker pool and the job table, and
// Handler (http.go) is the HTTP surface. See docs/SERVING.md.
package serve

import (
	"fmt"

	"chef/internal/chef"
	"chef/internal/interp"
	"chef/internal/packages"
	"chef/internal/symtest"
)

// Defaults applied by JobSpec.normalize, matching the chef CLI's flag
// defaults so an empty spec field and an unset flag mean the same run.
const (
	DefaultBudget    = 3_000_000
	DefaultStepLimit = 60_000
	DefaultSeed      = 1
	DefaultStrategy  = "cupa-path"
)

// InputSpec declares one symbolic input of an inline-source job, mirroring
// symtest.Input in wire-friendly form.
type InputSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "string" | "int"
	// String inputs: fixed buffer length and default bytes.
	Len     int    `json:"len,omitempty"`
	Default string `json:"default,omitempty"`
	// Int inputs: default value and optional [Min, Max] precondition
	// (applied via the assume() guest API call when Ranged is set).
	DefInt int32 `json:"defint,omitempty"`
	Ranged bool  `json:"ranged,omitempty"`
	Min    int32 `json:"min,omitempty"`
	Max    int32 `json:"max,omitempty"`
}

func (in InputSpec) toInput() (symtest.Input, error) {
	if in.Name == "" {
		return symtest.Input{}, fmt.Errorf("input with empty name")
	}
	switch in.Kind {
	case "string":
		if in.Len <= 0 {
			return symtest.Input{}, fmt.Errorf("input %q: string inputs need len > 0", in.Name)
		}
		return symtest.Str(in.Name, in.Len, in.Default), nil
	case "int":
		if in.Ranged && in.Min > in.Max {
			return symtest.Input{}, fmt.Errorf("input %q: empty range, min %d > max %d", in.Name, in.Min, in.Max)
		}
		if in.Ranged {
			return symtest.IntRange(in.Name, in.DefInt, in.Min, in.Max), nil
		}
		return symtest.Int(in.Name, in.DefInt), nil
	}
	return symtest.Input{}, fmt.Errorf("input %q: unknown kind %q (want string or int)", in.Name, in.Kind)
}

// JobSpec is one exploration job as submitted to POST /v1/jobs. The target
// program is either a named evaluation package (Package) or inline source
// (Language + Source + Entry + Inputs); the remaining fields are the same
// knobs the chef CLI exposes as flags, with the same defaults.
type JobSpec struct {
	// Package names one of the built-in evaluation packages (chef -list).
	// Mutually exclusive with inline source.
	Package string `json:"package,omitempty"`

	// Inline source: guest language ("python" | "lua"), program text, entry
	// function and symbolic input declarations.
	Language string      `json:"language,omitempty"`
	Source   string      `json:"source,omitempty"`
	Entry    string      `json:"entry,omitempty"`
	Inputs   []InputSpec `json:"inputs,omitempty"`

	// Exploration knobs, defaulted by normalize to the CLI's flag defaults.
	Strategy  string `json:"strategy,omitempty"`  // random | cupa-path | cupa-coverage | dfs | bfs
	Budget    int64  `json:"budget,omitempty"`    // virtual-time exploration budget
	StepLimit int64  `json:"steplimit,omitempty"` // per-run hang threshold
	Seed      int64  `json:"seed,omitempty"`
	Vanilla   bool   `json:"vanilla,omitempty"` // unoptimized interpreter build

	// CacheMode accepts only "exact" (the default) and SolverMode only
	// "oneshot" (the default). The counterexample cache and the decision
	// procedure each have one configuration; the fields stay because
	// submitted specs and the benchmark harness still name them, and any
	// other value is rejected.
	CacheMode  string `json:"cachemode,omitempty"`
	SolverMode string `json:"solvermode,omitempty"`

	// Shards selects sharded exploration (chef.ShardedSession): the job's
	// path space is split into signature-subtree ranges driven by up to
	// Shards epoch workers. 0 runs the plain single-session path; any value
	// in [1, chef.ShardSubtrees] runs the sharded semantics — results are
	// byte-identical for every positive value, so Shards > 1 is purely a
	// wall-clock knob. The scheduler charges a sharded job Shards worker
	// slots (capped at the pool size); see docs/SERVING.md.
	Shards int `json:"shards,omitempty"`
}

// normalize fills defaulted fields in place.
func (s *JobSpec) normalize() {
	if s.Strategy == "" {
		s.Strategy = DefaultStrategy
	}
	if s.Budget <= 0 {
		s.Budget = DefaultBudget
	}
	if s.StepLimit <= 0 {
		s.StepLimit = DefaultStepLimit
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.CacheMode == "" {
		s.CacheMode = "exact"
	}
	if s.SolverMode == "" {
		s.SolverMode = "oneshot"
	}
}

// Validate checks the spec without compiling anything. It normalizes first,
// so a validated spec is also a defaulted one.
func (s *JobSpec) Validate() error {
	s.normalize()
	if s.Package != "" {
		if s.Source != "" || s.Language != "" {
			return fmt.Errorf("package and inline source are mutually exclusive")
		}
		if _, ok := packages.ByName(s.Package); !ok {
			return fmt.Errorf("unknown package %q", s.Package)
		}
	} else {
		if s.Source == "" {
			return fmt.Errorf("need either package or source")
		}
		if _, ok := packages.ParseLang(s.Language); !ok {
			return fmt.Errorf("unknown language %q (want python or lua)", s.Language)
		}
		if s.Entry == "" {
			return fmt.Errorf("inline source needs an entry function")
		}
		if len(s.Inputs) == 0 {
			return fmt.Errorf("inline source needs at least one symbolic input")
		}
		for _, in := range s.Inputs {
			if _, err := in.toInput(); err != nil {
				return err
			}
		}
	}
	if _, ok := ParseStrategy(s.Strategy); !ok {
		return fmt.Errorf("unknown strategy %q", s.Strategy)
	}
	if s.CacheMode != "exact" {
		return fmt.Errorf("unknown cachemode %q (want exact)", s.CacheMode)
	}
	if s.SolverMode != "oneshot" {
		return fmt.Errorf("unknown solvermode %q (want oneshot)", s.SolverMode)
	}
	if s.Shards < 0 || s.Shards > chef.ShardSubtrees {
		return fmt.Errorf("shards %d out of range [0, %d]", s.Shards, chef.ShardSubtrees)
	}
	return nil
}

// build compiles the spec's target program and names it, returning errors
// instead of panicking (the symtest Program() helpers panic on compile
// errors, which is fine for the CLI's vetted built-ins but not for service
// input).
func (s *JobSpec) build() (string, chef.TestProgram, error) {
	cfg := interp.Optimized
	if s.Vanilla {
		cfg = interp.Vanilla
	}
	p, ok := packages.ByName(s.Package)
	what := s.Package
	if s.Package == "" {
		p, ok, what = s.inline(), true, "source"
	}
	if !ok {
		return "", nil, fmt.Errorf("unknown package %q", s.Package)
	}
	test := p.Test(cfg)
	if err := test.Compile(); err != nil {
		return "", nil, fmt.Errorf("compile %s: %w", what, err)
	}
	return p.Name, test.Program(), nil
}

// inline is the spec's inline source as a package. Validate has checked its
// language and inputs.
func (s *JobSpec) inline() *packages.Package {
	lang, _ := packages.ParseLang(s.Language)
	p := &packages.Package{Name: "inline-" + s.Language, Lang: lang, Source: s.Source, Entry: s.Entry}
	for _, in := range s.Inputs {
		decl, _ := in.toInput()
		p.Inputs = append(p.Inputs, decl)
	}
	return p
}

// ParseStrategy maps the wire/flag strategy names onto chef.StrategyKind.
// It is the single parser shared by the chef CLI and the job API.
func ParseStrategy(s string) (chef.StrategyKind, bool) {
	switch s {
	case "random":
		return chef.StrategyRandom, true
	case "cupa-path":
		return chef.StrategyCUPAPath, true
	case "cupa-coverage":
		return chef.StrategyCUPACoverage, true
	case "dfs":
		return chef.StrategyDFS, true
	case "bfs":
		return chef.StrategyBFS, true
	}
	return 0, false
}
