package interp

import "chef/internal/lowlevel"

// Host receives the high-level trace of a guest interpreter — CHEF's
// log_pc. chef.Ctx satisfies it in symbolic sessions; replay uses a
// coverage recorder.
type Host interface {
	LogPC(hlpc uint64, opcode uint32)
}

// NopHost discards the trace (pure concrete runs without coverage).
type NopHost struct{}

// LogPC implements Host.
func (NopHost) LogPC(uint64, uint32) {}

// Prefix is the record of a run's input-independent start, such as a
// module body: its log_pc calls, each with the machine steps charged since
// the call before, and the steps and concrete branches it charged in all.
// Replaying it on another machine charges the same steps at the same points
// of the trace, so a host observes what it would have observed of the run.
type Prefix struct {
	calls    []prefixCall
	tail     int64 // steps after the last call
	steps    int64 // steps in all
	branches int64
}

type prefixCall struct {
	hlpc   uint64
	opcode uint32
	steps  int64 // steps charged before the call
}

// PrefixRecorder is the host of a run being recorded as a Prefix. It
// charges nothing itself.
type PrefixRecorder struct {
	m    *lowlevel.Machine
	last int64
	p    Prefix
}

// NewPrefixRecorder records a run on m, which must not have run yet.
func NewPrefixRecorder(m *lowlevel.Machine) *PrefixRecorder {
	return &PrefixRecorder{m: m}
}

// LogPC implements Host.
func (r *PrefixRecorder) LogPC(hlpc uint64, opcode uint32) {
	s := r.m.Steps()
	r.p.calls = append(r.p.calls, prefixCall{hlpc, opcode, s - r.last})
	r.last = s
}

// Prefix returns the record of the run so far.
func (r *PrefixRecorder) Prefix() Prefix {
	p := r.p
	p.calls = append([]prefixCall(nil), p.calls...)
	p.steps = r.m.Steps()
	p.tail = p.steps - r.last
	p.branches = r.m.Branches()
	return p
}

// Fits reports whether replaying the prefix on m stays within m's step
// limit, also under a host that charges a step per log_pc call (chef.Ctx).
// A run whose prefix does not fit must run in full, to hang where it would.
func (p *Prefix) Fits(m *lowlevel.Machine) bool {
	return p.steps+int64(len(p.calls)) <= m.StepsLeft()
}

// Replay charges the prefix to m and feeds its log_pc calls to host. The
// prefix must fit m.
func (p *Prefix) Replay(m *lowlevel.Machine, host Host) {
	for _, c := range p.calls {
		m.Step(c.steps)
		host.LogPC(c.hlpc, c.opcode)
	}
	m.Step(p.tail)
	m.CountConcreteBranches(p.branches)
}
