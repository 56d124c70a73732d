// Package faults is a deterministic, seeded fault-injection layer for the
// engine stack. A Plan — parsed from the -faults flag of cmd/chef and
// cmd/chef-experiments — is a seed plus a list of rules naming an injection
// site and a trigger:
//
//	seed=7;solver.unknown:p=0.05;persist.write:err@n=3
//
// Sites:
//
//	solver.unknown — force the verdict of an actually-solved query to
//	                 Unknown, as if the propagation budget had been
//	                 exhausted (cache hits are unaffected; a budget miss
//	                 can only happen on a real solve).
//	persist.write  — fail a physical write of the persistent store's
//	                 flusher. Mode err fails cleanly with zero bytes
//	                 written; mode short writes half the buffer and then
//	                 fails, exercising the partial-write retention path.
//
// Triggers: p=<prob> fires probabilistically per occurrence, n=<k> fires at
// exactly the k-th occurrence, every=<k> at every k-th. A rule with no
// trigger fires at every occurrence.
//
// Determinism contract: an Injector's decisions are a pure function of
// (plan seed, scope label, occurrence index). Each scope derives its own PRNG
// stream from the plan seed hashed with the scope label, so a session's fault
// schedule does not depend on what other sessions do or on goroutine
// scheduling — the property the parallel-determinism chaos tests assert.
// Probabilistic rules draw from the site's stream on every occurrence,
// whether or not another rule already matched, so the stream position depends
// only on the occurrence index.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chef/internal/obs"
)

// Site names an injection point in the stack.
type Site string

// The supported injection sites.
const (
	SolverUnknown Site = "solver.unknown"
	PersistWrite  Site = "persist.write"
)

var knownSites = map[Site]bool{
	SolverUnknown: true,
	PersistWrite:  true,
}

// WriteMode is the outcome FireWrite prescribes for one physical write.
type WriteMode uint8

// Write outcomes. WriteErr fails with zero bytes written; WriteShort writes
// half the buffer before failing.
const (
	WriteOK WriteMode = iota
	WriteErr
	WriteShort
)

// Rule is one parsed fault rule. Zero trigger fields mean "unset".
type Rule struct {
	Site  Site
	Short bool    // persist.write: short write instead of a clean error
	P     float64 // fire with this probability per occurrence
	N     int64   // fire at exactly the N-th occurrence (1-based)
	Every int64   // fire at every multiple of Every
}

// always reports whether the rule fires on every occurrence (no trigger).
func (r Rule) always() bool { return r.P == 0 && r.N == 0 && r.Every == 0 }

// Plan is a parsed fault plan: a seed and the rule list. A nil *Plan (or one
// with no rules) injects nothing and derives nil Injectors, so the disabled
// path costs a single nil-check at each site.
type Plan struct {
	Seed  int64
	Rules []Rule

	spec string
}

// String returns the spec the plan was parsed from.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	return p.spec
}

// Parse builds a Plan from a -faults spec. An empty spec returns (nil, nil):
// injection disabled.
func Parse(spec string) (*Plan, error) {
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" {
		return nil, nil
	}
	p := &Plan{spec: trimmed}
	for _, field := range strings.Split(trimmed, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if v, ok := strings.CutPrefix(field, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", v)
			}
			p.Seed = seed
			continue
		}
		rule, err := parseRule(field)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, rule)
	}
	return p, nil
}

// parseRule parses one "site:param,param" field.
func parseRule(field string) (Rule, error) {
	site, params, _ := strings.Cut(field, ":")
	r := Rule{Site: Site(strings.TrimSpace(site))}
	if !knownSites[r.Site] {
		return r, fmt.Errorf("faults: unknown site %q (want solver.unknown or persist.write)", site)
	}
	for _, param := range strings.Split(params, ",") {
		param = strings.TrimSpace(param)
		if param == "" {
			continue
		}
		// Optional write-mode prefix: "err@n=3", "short@p=0.5", or bare
		// "err" / "short" (fires on every write).
		if mode, rest, ok := cutMode(param); ok {
			if r.Site != PersistWrite {
				return r, fmt.Errorf("faults: mode %q is only valid on %s", mode, PersistWrite)
			}
			r.Short = mode == "short"
			if rest == "" {
				continue
			}
			param = rest
		}
		key, val, ok := strings.Cut(param, "=")
		if !ok {
			return r, fmt.Errorf("faults: bad parameter %q in rule %q", param, field)
		}
		switch key {
		case "p":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f > 1 {
				return r, fmt.Errorf("faults: p=%q out of (0,1]", val)
			}
			r.P = f
		case "n":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return r, fmt.Errorf("faults: n=%q must be a positive integer", val)
			}
			r.N = n
		case "every":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return r, fmt.Errorf("faults: every=%q must be a positive integer", val)
			}
			r.Every = n
		default:
			return r, fmt.Errorf("faults: unknown parameter %q in rule %q", key, field)
		}
	}
	return r, nil
}

// cutMode splits an optional err/short prefix off a rule parameter.
func cutMode(param string) (mode, rest string, ok bool) {
	head, tail, cut := strings.Cut(param, "@")
	if head == "err" || head == "short" {
		if !cut {
			return head, "", true
		}
		return head, tail, true
	}
	return "", param, false
}

// Injector derives the deterministic per-scope injector for this plan. The
// scope label (a session name, "persist", ...) seeds the scope's private PRNG
// streams, so distinct scopes make independent — but individually
// reproducible — decisions. Returns nil (inject nothing) for a nil or
// rule-less plan.
func (p *Plan) Injector(scope string) *Injector {
	if p == nil || len(p.Rules) == 0 {
		return nil
	}
	return &Injector{
		plan:  p,
		scope: scope,
		rngs:  map[Site]*rand.Rand{},
		occ:   map[Site]int64{},
	}
}

// Injector makes the fire/no-fire decision at each injection site. It is
// safe for concurrent use (the persistent store's background flusher shares
// it with Append callers). All methods are nil-receiver safe; a nil Injector
// never fires.
type Injector struct {
	plan  *Plan
	scope string

	mu   sync.Mutex
	rngs map[Site]*rand.Rand
	occ  map[Site]int64

	total atomic.Int64

	reg *obs.Registry
}

// Instrument routes injection counts into reg (faults.injected plus a
// per-site counter). Nil-safe in both arguments.
func (in *Injector) Instrument(reg *obs.Registry) {
	if in == nil || reg == nil {
		return
	}
	in.mu.Lock()
	in.reg = reg
	in.mu.Unlock()
}

// Injected returns the total number of faults fired by this injector.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.total.Load()
}

// Fire records one occurrence at site and reports whether a fault fires
// there. Used for sites without modes (solver.unknown).
func (in *Injector) Fire(site Site) bool {
	if in == nil {
		return false
	}
	_, ok := in.fire(site)
	return ok
}

// FireWrite records one physical-write occurrence and returns the prescribed
// outcome for it.
func (in *Injector) FireWrite() WriteMode {
	if in == nil {
		return WriteOK
	}
	r, ok := in.fire(PersistWrite)
	switch {
	case !ok:
		return WriteOK
	case r.Short:
		return WriteShort
	default:
		return WriteErr
	}
}

// fire implements the occurrence bookkeeping and rule matching.
func (in *Injector) fire(site Site) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.occ[site]++
	occ := in.occ[site]
	var hit Rule
	fired := false
	for _, r := range in.plan.Rules {
		if r.Site != site {
			continue
		}
		match := r.always()
		if r.N > 0 && occ == r.N {
			match = true
		}
		if r.Every > 0 && occ%r.Every == 0 {
			match = true
		}
		if r.P > 0 {
			// Draw unconditionally: the stream position must be a pure
			// function of the occurrence index, not of other rules' matches.
			if in.rng(site).Float64() < r.P {
				match = true
			}
		}
		if match && !fired {
			hit, fired = r, true
		}
	}
	if fired {
		in.total.Add(1)
		if in.reg != nil {
			in.reg.Counter(obs.MFaultsInjected).Inc()
			in.reg.Counter(siteMetric(site)).Inc()
		}
	}
	return hit, fired
}

// rng returns (lazily creating) the site's PRNG stream, seeded from the plan
// seed and the scope and site labels. Caller holds in.mu.
func (in *Injector) rng(site Site) *rand.Rand {
	r := in.rngs[site]
	if r == nil {
		h := fnv.New64a()
		h.Write([]byte(in.scope))
		h.Write([]byte{0})
		h.Write([]byte(site))
		r = rand.New(rand.NewSource(in.plan.Seed ^ int64(h.Sum64())))
		in.rngs[site] = r
	}
	return r
}

// siteMetric maps a site to its canonical per-site counter name.
func siteMetric(site Site) string {
	if site == SolverUnknown {
		return obs.MFaultsSolverUnknown
	}
	return obs.MFaultsPersistWrite
}
