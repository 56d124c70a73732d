package main

import (
	"fmt"
	"math/rand"
	"time"

	"chef/internal/chef"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
	"chef/internal/symexpr"
	"chef/internal/symtest"
)

// batchConfig is a serial batch workload: every pass explores each package
// from its drawn seed in one goroutine, then replays the emitted tests, as
// the chef and chef-replay commands do.
type batchConfig struct {
	strategy chef.StrategyKind
	packages []string
	budget   int64 // virtual-time budget per session
}

type batchBench struct {
	cfg     batchConfig
	targets map[string]*target
	jobs    []job
}

// newBatch is the batch set-up: compile every package (timed fresh, then
// through the process-wide compile cache the sessions use) and draw one
// session seed per package from seed.
func newBatch(cfg batchConfig, seed int64) (*batchBench, setupInfo, error) {
	b := &batchBench{cfg: cfg, targets: map[string]*target{}}
	var info setupInfo
	rng := rand.New(rand.NewSource(seed))
	for _, name := range cfg.packages {
		p, ok := packages.ByName(name)
		if !ok {
			return nil, info, fmt.Errorf("unknown package %q", name)
		}
		t, ms, err := compileTarget(p)
		if err != nil {
			return nil, info, err
		}
		info.compileMs += ms
		b.targets[name] = t
		b.jobs = append(b.jobs, newJob(p, drawSeed(rng)))
	}
	return b, info, nil
}

func (b *batchBench) drawn() (jobs, prewarm []job) { return b.jobs, nil }

func (b *batchBench) pass(traced bool) (passResult, error) {
	r := passResult{attempted: len(b.jobs)}
	if traced {
		r.reg = obs.NewRegistry()
	}
	cov := coverage{}
	before := readRuntime()
	start := time.Now()
	var excluded time.Duration
	for _, j := range b.jobs {
		t := b.targets[j.Package]
		t0 := time.Now()
		opts := chef.Options{
			Strategy:      b.cfg.strategy,
			Seed:          j.Seed,
			StepLimit:     stepLimit,
			SolverOptions: solver.Options{Mode: solver.CacheExact},
			Metrics:       r.reg,
		}
		if traced {
			opts.Spans = obs.NewSpanProfiler(r.reg, nil)
		}
		sess := chef.NewSession(t.prog, opts)
		tRun := time.Now()
		tests := sess.Run(b.cfg.budget)
		tEnd := time.Now()
		r.compileNs += tRun.Sub(t0)
		r.solver.Add(sess.Engine().Solver().Stats())

		ser := make([]symtest.SerializedTest, len(tests))
		for i, tc := range tests {
			ser[i] = symtest.SerializedTest{
				Package: j.Package,
				Result:  tc.Result,
				Status:  tc.Status.String(),
				Input:   symtest.EncodeInput(tc.Input),
			}
		}
		r.tests += len(ser)
		ok, replayed, err := r.replayAll(t, ser, cov)
		if err != nil {
			return r, err
		}
		r.latencyMs = append(r.latencyMs, float64(tEnd.Sub(t0)+replayed)/1e6)
		if !ok {
			r.failed++
		}

		// The determinism digest is bookkeeping of the benchmark, kept out
		// of the pass's wall time.
		d0 := time.Now()
		symtest.SortTests(ser)
		data, err := symtest.MarshalTests(ser)
		if err != nil {
			return r, err
		}
		r.digest = digestOf(r.digest, data)
		excluded += time.Since(d0)
	}
	r.wall = time.Since(start) - excluded
	r.interned = symexpr.InternedCount()
	r.rt = runtimeDelta(before, readRuntime())
	r.covered, r.coverable = cov.total(b.targets)
	return r, nil
}

// compileTarget compiles p once without the compile cache, timing it as
// the set-up compile cost, then builds the optimized session program
// through the process-wide compile cache.
func compileTarget(p *packages.Package) (*target, float64, error) {
	start := time.Now()
	var err error
	if p.Lang == packages.Python {
		_, err = minipy.Compile(p.Source)
	} else {
		_, err = minilua.Compile(p.Source)
	}
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		return nil, 0, fmt.Errorf("compile %s: %w", p.Name, err)
	}
	t := &target{pkg: p, coverable: p.CoverableLOC()}
	if p.Lang == packages.Python {
		pt := p.PyTest(minipy.Optimized)
		if err := pt.Compile(); err != nil {
			return nil, 0, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		t.prog = pt.Program()
	} else {
		lt := p.LuaTest(minilua.Optimized)
		if err := lt.Compile(); err != nil {
			return nil, 0, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		t.prog = lt.Program()
	}
	return t, ms, nil
}

// drawSeed draws a positive session seed.
func drawSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<31) + 1 }
