package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"chef/internal/chef"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
	"chef/internal/symtest"
)

// job is one exploration the benchmark asks for: a package explored from a
// seed, after which its tests are replayed. The drawn jobs are printed with
// the result, so a claim can be re-checked on the same or a held-out seed.
type job struct {
	Package string `json:"package"`
	Lang    string `json:"lang"`
	Seed    int64  `json:"seed"`
	// Prewarmed marks a serve-warm job whose (package, seed) pair is in the
	// prewarmed persist store, so its queries are persist reads.
	Prewarmed bool `json:"prewarmed,omitempty"`
}

// target is a compiled package: the optimized build explores, the vanilla
// build replays, as the chef and chef-replay commands do.
type target struct {
	pkg       *packages.Package
	prog      chef.TestProgram // optimized build
	coverable int
}

func newJob(p *packages.Package, seed int64) job {
	return job{Package: p.Name, Lang: p.Lang.String(), Seed: seed}
}

// replay re-executes one emitted test on the vanilla interpreter.
func (t *target) replay(tc symtest.SerializedTest) (symtest.ReplayResult, error) {
	in, err := symtest.DecodeInput(tc.Input)
	if err != nil {
		return symtest.ReplayResult{}, err
	}
	if t.pkg.Lang == packages.Python {
		return t.pkg.PyTest(minipy.Vanilla).Replay(in, stepLimit), nil
	}
	return t.pkg.LuaTest(minilua.Vanilla).Replay(in, stepLimit), nil
}

// replayOK is chef-replay's acceptance rule plus a status check: the replay
// reproduces the recorded result and run status; a recorded hang matches a
// replayed hang. Results compare as the NDJSON test format carries them:
// JSON encoding replaces bytes that are not UTF-8 (guest error messages
// quoting raw input bytes), so a served result is compared with the
// replayed one encoded the same way.
func replayOK(tc symtest.SerializedTest, rep symtest.ReplayResult) bool {
	if tc.Status == "hang" && rep.Result == "hang" {
		return true
	}
	return wire(rep.Result) == wire(tc.Result) && rep.Status.String() == tc.Status
}

// wire returns s as it reads back after a JSON round trip.
func wire(s string) string {
	data, err := json.Marshal(s)
	if err != nil {
		return s
	}
	var out string
	if json.Unmarshal(data, &out) != nil {
		return s
	}
	return out
}

// passResult is what one pass over a workload's jobs measured.
type passResult struct {
	wall      time.Duration
	attempted int       // jobs run
	latencyMs []float64 // per job
	tests     int
	digest    uint64 // over every job's sorted serialized tests, in job order
	failed    int    // jobs that failed or whose replay mismatched
	replayed  int
	mismatch  int
	covered   int // per-package union of replayed lines, summed
	coverable int
	rt        rtDelta

	// Outside timers (all passes).
	replayNs    time.Duration
	replaySteps int64
	compileNs   time.Duration // program lookup and session build inside the pass
	httpNs      time.Duration // serve-warm: submit-to-tests intervals
	submitMs    []float64
	overheadMs  []float64 // serve-warm: latency minus the job's serve.job span

	// Program-exported numbers (traced passes; serve-warm always).
	reg      *obs.Registry // spans and counters
	flushReg *obs.Registry // persist.flush spans (serve-warm)
	solver   solver.Stats
	appended int64
	interned int64
}

// coverage accumulates the per-package union of replayed lines.
type coverage map[string]map[int]bool

func (c coverage) add(pkg string, lines map[int]bool) {
	m := c[pkg]
	if m == nil {
		m = map[int]bool{}
		c[pkg] = m
	}
	for l := range lines {
		m[l] = true
	}
}

// total returns the covered and coverable line counts over the packages
// seen.
func (c coverage) total(targets map[string]*target) (covered, coverable int) {
	for pkg, m := range c {
		covered += len(m)
		coverable += targets[pkg].coverable
	}
	return covered, coverable
}

// replayAll replays tests on t and folds the outcome into r and cov. It
// reports whether every replay matched and how long the replays took.
func (r *passResult) replayAll(t *target, tests []symtest.SerializedTest, cov coverage) (bool, time.Duration, error) {
	start := time.Now()
	ok := true
	for _, tc := range tests {
		rep, err := t.replay(tc)
		if err != nil {
			return false, 0, err
		}
		r.replayed++
		r.replaySteps += rep.Steps
		cov.add(t.pkg.Name, rep.Lines)
		if !replayOK(tc, rep) {
			r.mismatch++
			ok = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: replay mismatch: recorded %s/%q, replayed %s/%q\n",
				t.pkg.Name, tc.Status, tc.Result, rep.Status, rep.Result)
		}
	}
	d := time.Since(start)
	r.replayNs += d
	return ok, d, nil
}

// digestOf folds serialized tests (already in symtest.SortTests order) into
// a running FNV-1a digest.
func digestOf(prev uint64, data []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(prev >> (8 * i))
	}
	h.Write(b[:])
	h.Write(data)
	return h.Sum64()
}

// layers derives the per-layer metrics of one traced pass. Times are wall
// clock; span self times exclude child spans.
func (r *passResult) layers(setup setupInfo) map[string]float64 {
	spans := map[string]obs.SpanAggregate{}
	if r.reg != nil {
		for _, a := range r.reg.SpanAggregates() {
			spans[a.Layer] = a
		}
	}
	if r.flushReg != nil {
		for _, a := range r.flushReg.SpanAggregates() {
			spans[a.Layer] = a
		}
	}
	var snap obs.Snapshot
	if r.reg != nil {
		snap = r.reg.Snapshot()
	}
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	run, check, blast := spans[obs.SpanEngineRun], spans[obs.SpanSolverCheck], spans[obs.SpanSolverBlast]
	epoch := spans[obs.SpanShardEpoch]
	var steals float64
	for _, v := range snap.Vecs[obs.MShardSteals] {
		steals += float64(v)
	}

	// The partition: every interval of the pass someone timed. Span self
	// times partition each chef.session (or, under serve, each serve.job);
	// the benchmark's own timers cover replay, program lookup and the HTTP
	// round trips. Serve-warm's server-side spans run inside the HTTP
	// intervals, so only the client-side intervals count there.
	var parts []float64
	if r.httpNs > 0 {
		parts = []float64{ms(int64(r.httpNs))}
	} else {
		for _, a := range spans {
			if a.Layer != obs.SpanPersistFlush {
				parts = append(parts, ms(a.WallSelf))
			}
		}
		parts = append(parts, ms(int64(r.compileNs)))
	}
	parts = append(parts, ms(int64(r.replayNs)))

	return map[string]float64{
		"chef.session.self_ms":  ms(spans[obs.SpanChefSession].WallSelf),
		"engine.run.self_ms":    ms(run.WallSelf),
		"engine.run.us_per_run": ratio(us(run.WallSelf), float64(run.Count)),
		"engine.runs":           c(obs.MRuns),
		"engine.forks":          c(obs.MForks),
		"engine.llpaths":        c(obs.MLLPaths),
		"chef.logpc":            c(obs.MChefLogPC),
		"cupa.selections":       c(obs.MCupaSelections),
		"engine.hl_yield":       ratio(float64(r.tests), c(obs.MLLPaths)),
		"engine.dup_frac":       ratio(c(obs.MDupStates), c(obs.MForks)),
		"engine.divergences":    c(obs.MDivergences),

		"replay.ms":          ms(int64(r.replayNs)),
		"replay.ns_per_step": ratio(float64(r.replayNs), float64(r.replaySteps)),
		"replay.steps":       float64(r.replaySteps),

		"solver.check.self_ms":        ms(check.WallSelf),
		"solver.check.us_per_query":   ratio(us(check.WallTotal), float64(check.Count)),
		"solver.queries":              float64(r.solver.Queries),
		"solver.cache.hit_ratio":      ratio(float64(r.solver.CacheHits), float64(r.solver.CacheHits+r.solver.CacheMisses)),
		"solver.cache_lookup.self_ms": ms(spans[obs.SpanCacheLookup].WallSelf),
		"symexpr.interned":            float64(r.interned),

		"solver.blast.self_ms":     ms(blast.WallSelf),
		"solver.blast.count":       float64(blast.Count),
		"solver.blast.us_per_call": ratio(us(blast.WallTotal), float64(blast.Count)),
		"solver.propagations":      float64(r.solver.Propagations),
		"solver.conflicts":         float64(r.solver.Conflicts),
		"solver.unknowns":          float64(r.solver.Unknowns),

		"solver.persist.hit_ratio":      ratio(float64(r.solver.CacheHitsPersist), float64(spans[obs.SpanPersistLookup].Count)),
		"solver.persist_lookup.self_ms": ms(spans[obs.SpanPersistLookup].WallSelf),
		"persist.flush.self_ms":         ms(spans[obs.SpanPersistFlush].WallSelf),
		"solver.persist.appended":       float64(r.appended),

		"shard.epochs":                c(obs.MShardEpochs),
		"shard.epoch.wall_ms":         ms(epoch.WallTotal),
		"shard.effective_parallelism": ratio(float64(run.WallTotal), float64(epoch.WallTotal)),
		"shard.handoffs.states":       c(obs.MShardHandoffs),
		"shard.handoff_dup_ratio":     ratio(c(obs.MShardHandoffDups), c(obs.MShardHandoffDups)+c(obs.MShardHandoffs)),
		"shard.steals":                steals,

		"serve.overhead_ms": mean(r.overheadMs),
		"serve.submit_ms":   median(r.submitMs),
		"serve.jobs.failed": c(obs.MServeJobsFailed),

		"runtime.alloc_mb":    r.rt.AllocMB,
		"runtime.gc_cpu_frac": r.rt.GCCPUFrac,
		"runtime.gc_cycles":   r.rt.GCCycles,

		"setup.compile_ms": setup.compileMs,
		"setup.prewarm_s":  setup.prewarmS,

		"unattributed_frac": unattributedFrac(r.wall.Seconds()*1e3, parts...),
	}
}
