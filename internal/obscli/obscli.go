// Package obscli wires the observability layer (internal/obs), the
// persistent counterexample store and the fault-injection plan into the
// command-line tools. It owns the shared -trace / -metrics / -metrics-json /
// -httpobs / -spans / -cachefile / -faults flags of cmd/chef,
// cmd/chef-experiments and cmd/chef-serve, so the three binaries expose
// identical knobs with one implementation, and it keeps the net/http/pprof
// side-effect import out of the engine packages: only binaries that link
// this package register pprof handlers on the default mux.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -httpobs
	"os"

	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/solver"
)

// Flags is the standard observability, store and fault flag set. Register it
// on a FlagSet, parse, then call Start before the run and Finish after it.
type Flags struct {
	// Trace is the JSONL event output path ("" disables tracing).
	Trace string
	// Metrics requests a human-readable metrics dump on Finish.
	Metrics bool
	// MetricsJSON is a path to write the metrics snapshot as JSON ("" off).
	MetricsJSON string
	// HTTPAddr serves expvar + pprof when non-empty (e.g. ":6060").
	HTTPAddr string
	// Spans enables the hierarchical span profiler (per-layer self/total
	// time aggregates in the metrics dump, span events in the trace).
	Spans bool

	cacheFile  string // -cachefile: persistent store path ("" disables it)
	faultSpec  string // -faults: fault-injection plan ("" disables it)
	reg        *obs.Registry
	tracer     *obs.JSONL
	plan       *faults.Plan
	store      *solver.PersistentStore
	persistInj *faults.Injector
}

// Register installs the observability, -cachefile and -faults flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write structured exploration events as JSONL to this file")
	fs.BoolVar(&f.Metrics, "metrics", false, "print a metrics dump (counters, gauges, solver latency histograms, cache hit rates) at exit")
	fs.StringVar(&f.MetricsJSON, "metrics-json", "", "write the metrics snapshot as JSON to this file")
	fs.StringVar(&f.HTTPAddr, "httpobs", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address, e.g. :6060")
	fs.BoolVar(&f.Spans, "spans", false, "profile per-layer self/total time (span.* metrics, span trace events; render with chef-trace -profile)")
	fs.StringVar(&f.cacheFile, "cachefile", "", "persistent counterexample cache: load solved queries from this file at startup, append new ones")
	fs.StringVar(&f.faultSpec, "faults", "", "deterministic fault-injection plan, e.g. 'seed=7;solver.unknown:p=0.05;persist.write:err@n=3' (see docs/ROBUSTNESS.md)")
}

// MetricsEnabled reports whether any metrics sink was requested.
func (f *Flags) MetricsEnabled() bool {
	// -spans implies a registry: the span aggregates need somewhere to live
	// even when only the trace sink is open.
	return f.Metrics || f.MetricsJSON != "" || f.HTTPAddr != "" || f.Spans
}

// Start parses the -faults plan, opens the -cachefile store (warning on
// stderr when its file is corrupt), opens the requested sinks — the registry
// when any metrics sink is enabled, the trace file, the expvar/pprof endpoint
// publishing the registry under name — and then wires the store: the
// persist fault injector, and under -spans a profiler for its flusher.
// Errors are prefixed with the flag at fault.
func (f *Flags) Start(name string) error {
	plan, err := faults.Parse(f.faultSpec)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	f.plan = plan
	if f.cacheFile != "" {
		f.store, err = solver.OpenPersistentStore(f.cacheFile)
		if err != nil {
			return fmt.Errorf("-cachefile: %w", err)
		}
		if cerr := f.store.Corruption(); cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: -cachefile: %v; continuing with the %d valid entries (appends disabled)\n",
				name, cerr, f.store.Loaded())
		}
	}
	if f.MetricsEnabled() {
		if f.reg == nil {
			f.reg = obs.NewRegistry()
		}
		f.reg.SetVecLabeler(obs.MForksByLLPC, packages.LLPCLabel)
		if f.HTTPAddr != "" {
			f.reg.Publish(name)
			go func() {
				if err := http.ListenAndServe(f.HTTPAddr, nil); err != nil {
					fmt.Fprintf(os.Stderr, "%s: -httpobs: %v\n", name, err)
				}
			}()
		}
	}
	if f.Trace != "" {
		out, err := os.Create(f.Trace)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		f.tracer = obs.NewJSONL(out)
	}
	if f.store != nil {
		f.persistInj = plan.Injector("persist")
		f.persistInj.Instrument(f.reg)
		f.store.SetFaults(f.persistInj)
		if f.Spans {
			// The flusher goroutine gets its own profiler (profilers are
			// single-goroutine); its spans land in the same registry/trace.
			f.store.Attach(solver.Instruments{Spans: obs.NewSpanProfiler(f.reg, f.Tracer())})
		}
	}
	return nil
}

// Faults returns the parsed -faults plan, nil when the flag is unset.
func (f *Flags) Faults() *faults.Plan { return f.plan }

// Store returns the -cachefile store, nil when the flag is unset. Runs read
// it through one View taken right after Start, before any append.
func (f *Flags) Store() *solver.PersistentStore { return f.store }

// PersistInjected returns the number of faults injected into the store's
// writes so far.
func (f *Flags) PersistInjected() int64 { return f.persistInj.Injected() }

// Registry returns the metrics registry, nil when no metrics sink is enabled.
// The nil default is what the engine packages expect for disabled metrics.
func (f *Flags) Registry() *obs.Registry { return f.reg }

// StartAlways is Start for long-running servers, which always carry a
// registry (a server's /metrics endpoint must work without any metrics flag)
// and always profile spans (every job builds its own profiler): it turns
// -spans on, which implies the registry, then starts as usual.
func (f *Flags) StartAlways(name string) error {
	f.Spans = true
	return f.Start(name)
}

// Tracer returns the trace sink as the interface the engine consumes, nil
// when tracing is disabled (a typed-nil *JSONL must not leak into the
// interface, or every nil-check in the hot path would pass).
func (f *Flags) Tracer() obs.Tracer {
	if f.tracer == nil {
		return nil
	}
	return f.tracer
}

// SpanProfiler builds the span profiler requested by -spans, nil when the
// flag is off. Call after Start (the registry and tracer must exist). The
// profiler is single-goroutine; multi-session drivers should instead check
// SpansEnabled and build one profiler per session.
func (f *Flags) SpanProfiler() *obs.SpanProfiler {
	if !f.Spans {
		return nil
	}
	return obs.NewSpanProfiler(f.reg, f.Tracer())
}

// SpansEnabled reports whether -spans was given.
func (f *Flags) SpansEnabled() bool { return f.Spans }

// SetCacheGauges copies end-of-run query-cache occupancy into the dump-time
// gauges (entries, evictions). Call just before Finish when a cache handle is
// reachable; a no-op when metrics are disabled.
func (f *Flags) SetCacheGauges(entries, evictions int64) {
	if f.reg == nil {
		return
	}
	f.reg.Gauge(obs.MSolverCacheEntries).Set(entries)
	f.reg.Gauge(obs.MSolverCacheEvicted).Set(evictions)
}

// Finish closes the -cachefile store and publishes its counts, then flushes
// and closes the trace file, prints the text metrics dump to w when -metrics
// was given, and writes the JSON snapshot when -metrics-json was given. The
// store is closed first: Close drains (or gives up on) pending writes, so
// the published counts are final. A store close error means appended
// entries were lost; it is returned after the sinks are written, so the
// caller exits nonzero. Safe to call when nothing is enabled.
func (f *Flags) Finish(w io.Writer) error {
	var cerr error
	if f.store != nil {
		cerr = f.store.Close()
		f.store.Publish(f.reg)
	}
	err := f.finishSinks(w)
	if cerr != nil {
		return fmt.Errorf("-cachefile: %w", cerr)
	}
	return err
}

func (f *Flags) finishSinks(w io.Writer) error {
	if f.tracer != nil {
		if err := f.tracer.Close(); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		f.tracer = nil
	}
	if f.reg == nil {
		return nil
	}
	if f.Metrics {
		fmt.Fprintln(w, "---- metrics ----")
		f.reg.WriteText(w)
	}
	if f.MetricsJSON != "" {
		data, err := f.reg.MarshalJSON()
		if err != nil {
			return fmt.Errorf("-metrics-json: %w", err)
		}
		if err := os.WriteFile(f.MetricsJSON, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("-metrics-json: %w", err)
		}
	}
	return nil
}
