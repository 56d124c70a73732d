// Command perfbench is the repository's wall-clock benchmark. It times
// calls into the engine's public entry points from outside — package
// compile, chef sessions, sharded sessions behind the chef-serve HTTP
// handler, and vanilla replay — and splits the time by layer with the
// counters and span aggregates the engine already exports.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload parsers-cupa --seed 1 --seconds 12 --trace 0
//
// One run sets up several times (the median is setup_s), runs one unmeasured
// warm-up pass, then repeats identical measured passes for --seconds. The
// last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end table
// of metrics.go (span profiler off); with --trace 1 untraced and traced
// passes alternate and the metrics are the per-layer table, medians over
// the traced passes. The line before it describes the run: host, drawn
// jobs, pass count and per-pass figures.
//
// Every emitted test is replayed on the vanilla interpreter; a run is
// incorrect if any replay mismatches, any job fails, or two passes at the
// same seed disagree on the test count or the sorted-test digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chef/internal/chef"
)

// stepLimit is the per-run hang threshold of the chef and chef-replay
// commands.
const stepLimit = 60_000

// minPasses is the number of measured passes a run always makes, whatever
// --seconds says. The tail percentile is chosen for this many passes, so
// it does not drift when the engine gets faster and more passes fit.
const minPasses = 5

// workloads are the benchmark's named inputs; BENCHMARK.json records why
// each was chosen.
var workloads = map[string]struct {
	setupReps int
	build     func(seed int64, dir string) (bench, setupInfo, error)
}{
	// The paper's test-generation flow on the eight Table-3 packages whose
	// time goes mostly to interpretation: CUPA-path, optimized builds, no
	// persist store, replay of every test.
	"parsers-cupa": {15, func(seed int64, _ string) (bench, setupInfo, error) {
		return newBatch(batchConfig{
			strategy: chef.StrategyCUPAPath,
			packages: []string{"argparse", "ConfigParser", "HTMLParser", "simplejson", "unicodecsv", "cliargs", "haml", "markdown"},
			budget:   600_000,
		}, seed)
	}},
	// The solver workload: cold depth-first search whose path conditions
	// grow long; flagmaze is the boolean-shaped query stream.
	"deep-dfs": {15, func(seed int64, _ string) (bench, setupInfo, error) {
		return newBatch(batchConfig{
			strategy: chef.StrategyDFS,
			packages: []string{"JSON", "xlrd", "moonscript", "flagmaze"},
			budget:   300_000,
		}, seed)
	}},
	// The service: closed loop, one client, 2-shard jobs, a prewarmed
	// persist store that fresh seeds miss and append to.
	"serve-warm": {3, func(seed int64, dir string) (bench, setupInfo, error) {
		return newServeWarm(serveConfig{budget: 200_000, shards: 2, poll: 2 * time.Millisecond}, seed, dir)
	}},
}

// bench is a set-up workload ready to run passes.
type bench interface {
	pass(traced bool) (passResult, error)
	// drawn returns the jobs of one pass and the prewarm jobs, as drawn
	// from the seed.
	drawn() (jobs, prewarm []job)
}

// setupInfo is what one set-up measured besides its own wall time.
type setupInfo struct {
	compileMs float64 // fresh compile of the workload's packages
	prewarmS  float64 // running the prewarm jobs (serve-warm)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: parsers-cupa, deep-dfs or serve-warm")
		seed    = flag.Int64("seed", 1, "seed of the workload's drawn inputs")
		seconds = flag.Int("seconds", 12, "measured time per run, in whole passes (at least 5 of them)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// detail is the description line printed before the result.
type detail struct {
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	Host         host        `json:"host"`
	Jobs         []job       `json:"jobs"`
	Prewarm      []job       `json:"prewarm,omitempty"`
	SetupS       []float64   `json:"setup_s"`
	Passes       int         `json:"passes"`
	TracedPasses int         `json:"traced_passes,omitempty"`
	WallS        []float64   `json:"wall_s"`
	WallQ1       float64     `json:"wall_s_q1"`
	WallQ3       float64     `json:"wall_s_q3"`
	TailPct      int         `json:"job_tail_percentile"`
	JobSamples   int         `json:"job_samples"`
	HLTests      int         `json:"hl_tests"`
	Digest       string      `json:"digest"`
	JobMs        [][]float64 `json:"job_ms"`
	Runtime      []rtDelta   `json:"runtime"`
	Layers       []layer     `json:"layers,omitempty"`
}

func run(name string, seed int64, seconds time.Duration, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}

	// Set up several times and keep the last; the median is setup_s.
	var (
		b     bench
		info  setupInfo
		setup []float64
		infos []setupInfo
	)
	for i := 0; i < w.setupReps; i++ {
		start := time.Now()
		b, info, err = w.build(seed, dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		infos = append(infos, info)
	}
	info = setupInfo{
		compileMs: median(collect(infos, func(s setupInfo) float64 { return s.compileMs })),
		prewarmS:  median(collect(infos, func(s setupInfo) float64 { return s.prewarmS })),
	}

	// The warm-up pass fills lazy caches and fixes the reference output
	// every measured pass must reproduce.
	ref, err := b.pass(false)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	var plain, tracedPasses []passResult
	attempted, failed := ref.attempted, ref.failed
	deterministic := true
	deadline := time.Now().Add(seconds)
	for i := 0; len(plain) < minPasses || (traced && len(tracedPasses) < minPasses) || time.Now().Before(deadline); i++ {
		t := traced && i%2 == 1
		r, err := b.pass(t)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
		attempted += r.attempted
		failed += r.failed
		if r.tests != ref.tests || r.digest != ref.digest {
			deterministic = false
		}
		if t {
			tracedPasses = append(tracedPasses, r)
		} else {
			plain = append(plain, r)
		}
	}

	walls := collect(plain, func(r passResult) float64 { return r.wall.Seconds() })
	var latencies []float64
	for _, r := range plain {
		latencies = append(latencies, r.latencyMs...)
	}
	tailPct := tailPercentile(ref.attempted * minPasses)
	q1, q3 := quartiles(walls)
	d := detail{
		Workload:     name,
		Seed:         seed,
		Host:         hostInfo(),
		SetupS:       setup,
		Passes:       len(plain),
		TracedPasses: len(tracedPasses),
		WallS:        walls,
		WallQ1:       q1,
		WallQ3:       q3,
		TailPct:      tailPct,
		JobSamples:   len(latencies),
		HLTests:      ref.tests,
		Digest:       fmt.Sprintf("%016x", ref.digest),
		JobMs:        collect(plain, func(r passResult) []float64 { return r.latencyMs }),
		Runtime:      collect(plain, func(r passResult) rtDelta { return r.rt }),
	}
	d.Jobs, d.Prewarm = b.drawn()

	values := map[string]float64{}
	if traced {
		d.Layers = layers
		perPass := collect(tracedPasses, func(r passResult) map[string]float64 { return r.layers(info) })
		for _, m := range perLayer {
			values[m.Name] = median(collect(perPass, func(l map[string]float64) float64 { return l[m.Name] }))
		}
		tw := median(collect(tracedPasses, func(r passResult) float64 { return r.wall.Seconds() }))
		values["trace.overhead_ratio"] = ratio(tw, median(walls))
	} else {
		wall := median(walls)
		hl := float64(ref.tests)
		values = map[string]float64{
			"wall_s":            wall,
			"tests_per_s":       ratio(hl, wall),
			"hl_tests":          hl,
			"line_coverage_pct": 100 * ratio(float64(ref.covered), float64(ref.coverable)),
			"replay_ok_frac":    1 - ratio(float64(sum(plain, func(r passResult) int { return r.mismatch })), float64(sum(plain, func(r passResult) int { return r.replayed }))),
			"setup_s":           median(setup),
			"heap_live_mb":      median(collect(plain, func(r passResult) float64 { return r.rt.LiveMB })),
			"jobs_per_s":        ratio(float64(len(latencies)), sumF(walls)),
			"job_p50_ms":        percentile(latencies, 50),
			"job_tail_ms":       percentile(latencies, tailPct),
			"job_ok_frac":       1 - ratio(float64(sum(plain, func(r passResult) int { return r.failed })), float64(len(plain)*ref.attempted)),
		}
	}

	out := result{
		Correct:   failed == 0 && deterministic,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	for _, m := range table {
		out.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	if !deterministic {
		fmt.Fprintln(os.Stderr, "perfbench: passes at the same seed disagree on hl_tests or the test digest")
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]detail{"perfbench": d}); err != nil {
		return err
	}
	return enc.Encode(out)
}

func collect[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func sum[T any](xs []T, f func(T) int) int {
	n := 0
	for _, x := range xs {
		n += f(x)
	}
	return n
}
