package serve

import (
	"context"
	"fmt"

	"chef/internal/chef"
	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/solver"
	"chef/internal/symtest"
)

// ExecOptions carries the process-level resources a job runs against. All
// fields are optional; the zero value runs the job fully isolated.
type ExecOptions struct {
	// Persist, when non-nil, is the job's view of the persistent store,
	// whose answerable set is fixed for the job's lifetime (hits replay their
	// recorded cost, so warm jobs stay byte-identical to cold ones).
	Persist *solver.PersistView
	// Metrics, when non-nil, receives the job's counters and histograms
	// (the server gives each job a child registry and merges it into the
	// server totals when the job finishes).
	Metrics *obs.Registry
	// Tracer, when non-nil, receives the job's exploration events.
	Tracer obs.Tracer
	// Spans, when non-nil, profiles the job's layers (see obs.SpanProfiler).
	// Single-goroutine: the server builds one per job.
	Spans *obs.SpanProfiler
	// Faults is the fault-injection plan; the session derives its injector
	// from (plan seed, Name).
	Faults *faults.Plan
	// Name labels the session's trace events and scopes its fault injector.
	Name string
}

// JobResult is the outcome of one executed job.
type JobResult struct {
	// Tests are the generated test cases in symtest.SortTests order — the
	// same serialized form, in the same order, as the chef CLI emits.
	Tests []symtest.SerializedTest `json:"tests"`
	// Summary is the session's headline numbers (chef.Summary).
	Summary chef.Summary `json:"summary"`
	// Cancelled reports the job stopped early because its context was done;
	// Tests holds whatever was generated before the cancellation point.
	Cancelled bool `json:"cancelled,omitempty"`
	// CacheStats is the occupancy of the job's in-memory query cache.
	CacheStats solver.CacheStats `json:"-"`
	// SolverStats is the job's solver traffic, including persistent-store
	// hits (CacheHitsPersist > 0 on a warm job).
	SolverStats solver.Stats `json:"-"`
}

// Execute runs one job to completion (or cancellation) and returns its
// result. It is the single job entry point shared by the server's workers
// and the chef CLI: both paths build the same session from the same spec, so
// a served run is byte-identical to a CLI run with the same spec and seed by
// construction.
func Execute(ctx context.Context, spec JobSpec, eo ExecOptions) (JobResult, error) {
	if err := spec.Validate(); err != nil {
		return JobResult{}, fmt.Errorf("invalid job spec: %w", err)
	}
	name, prog, err := spec.build()
	if err != nil {
		return JobResult{}, err
	}
	strat, _ := ParseStrategy(spec.Strategy)
	opts := chef.Options{
		Strategy:  strat,
		Seed:      spec.Seed,
		StepLimit: spec.StepLimit,
		Metrics:   eo.Metrics,
		Tracer:    eo.Tracer,
		Spans:     eo.Spans,
		Name:      eo.Name,
		Faults:    eo.Faults,

		SolverOptions: solver.Options{Persist: eo.Persist},
	}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("%s/%s/%d", name, spec.Strategy, spec.Seed)
	}

	var (
		tests []chef.TestCase
		res   JobResult
	)
	if spec.Shards >= 1 {
		// Sharded path: same spec, same seed, sharded semantics. Cross-job
		// warmth flows through the persist view.
		ss := chef.NewShardedSession(prog, opts, spec.Shards)
		tests = ss.RunContext(ctx, spec.Budget)
		res = JobResult{
			Summary:     ss.Summary(),
			Cancelled:   ss.Cancelled(),
			CacheStats:  ss.CacheStats(),
			SolverStats: ss.SolverStats(),
		}
	} else {
		session := chef.NewSession(prog, opts)
		tests = session.RunContext(ctx, spec.Budget)
		res = JobResult{
			Summary:     session.Summary(),
			Cancelled:   session.Cancelled(),
			CacheStats:  session.Engine().Solver().Cache().Stats(),
			SolverStats: session.Engine().Solver().Stats(),
		}
	}
	res.Tests = make([]symtest.SerializedTest, 0, len(tests))
	for _, tc := range tests {
		res.Tests = append(res.Tests, symtest.SerializedTest{
			Package: name,
			Result:  tc.Result,
			Status:  tc.Status.String(),
			Input:   symtest.EncodeInput(tc.Input),
		})
	}
	symtest.SortTests(res.Tests)
	return res, nil
}
