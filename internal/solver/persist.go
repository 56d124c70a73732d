package solver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/symexpr"
)

// Persistent counterexample cache: an append-only binary log of solved
// canonical queries, reloaded at startup so a later process starts warm.
//
// The store is deliberately asymmetric:
//
//   - The *read side* is fixed per View. A View taken right after opening
//     sees only what the previous process left on disk, never entries
//     appended during this run (the in-memory QueryCache already serves
//     those). This is what makes a warm rerun reproduce a cold run
//     byte-for-byte: the set of answerable persistent lookups is fixed before
//     the run starts, so it cannot depend on scheduling.
//   - The *write side* records only queries this run actually solved, and
//     a solve is a pure function of its canonical key, so every entry is
//     what a cold solve of its key produces.
//
// Every read goes through a View: a View snapshots the load-time entries plus
// everything published by earlier Appends at view-creation time, so the
// answerable set of a run (a CLI process takes one View right after opening)
// or of a job (chef-serve takes one per job) is fixed when it starts — the
// determinism contract — while jobs submitted later still observe warm state
// from jobs that already ran, without waiting for a process restart.
//
// Each entry stores the canonical constraint sequence, the result, the model
// (Sat only) and the SAT propagation count the solve cost. A hit replays that
// cost into the solver's stats, so the virtual clock — and therefore every
// scheduling decision downstream — advances exactly as on a cold run. The
// store buys wall-clock time only.
//
// On-disk format (all integers little-endian or uvarint):
//
//	magic "CHEFCXC1"
//	repeat: [u32 payload len][payload][u32 crc32(payload)]
//	payload: result byte (1=sat 2=unsat)
//	         cost uvarint
//	         #constraints uvarint, each a symexpr encoding (width 1)
//	         #model vars uvarint, each a var encoding followed by val uvarint
//
// Corruption tolerance: loading stops at the first bad frame (bad magic,
// truncated frame, CRC mismatch, malformed payload). The valid prefix stays
// usable for lookups; appending is disabled so the file is never extended
// past garbage (records after a bad frame would be unreachable anyway). A
// corrupt or empty cache file therefore degrades to a cold cache, never an
// error the engine sees.

// persistMagic identifies format version 1.
const persistMagic = "CHEFCXC1"

// maxPersistRecord caps one record's payload so a corrupted length field
// cannot trigger a huge allocation.
const maxPersistRecord = 1 << 24

// maxPersistConstraints caps the constraint count of one decoded entry.
const maxPersistConstraints = 1 << 16

// persistFlushInterval is the background flusher's period.
const persistFlushInterval = 200 * time.Millisecond

// maxFlushRetries is the write-retry budget: after this many consecutive
// failed write attempts the store loudly disables appends (writeErr set,
// pending entries counted as lost) instead of retrying forever.
const maxFlushRetries = 5

type persistEntry struct {
	canon  []*symexpr.Expr
	result Result
	model  symexpr.Assignment
	cost   int64
}

// PersistentStore is the disk-backed layer of the counterexample cache. It is
// safe for concurrent use by many solvers (the parallel harness shares one
// store across sessions).
type PersistentStore struct {
	path string

	// entries is immutable after OpenPersistentStore returns; lookups read it
	// without locking. Models are owned by the store — callers clone.
	entries map[uint64][]persistEntry
	loaded  int
	corrupt error // non-nil: loading stopped early; appends disabled

	// overlay holds entries appended (and therefore published) during this
	// process, keyed like entries. Only Views snapshotted after the publish
	// consult it. Bucket slices are copy-on-publish: once a slice is stored
	// it is never mutated, so View can alias them.
	ovMu    sync.RWMutex
	overlay map[uint64][]persistEntry

	mu      sync.Mutex
	f       *os.File
	pending []byte
	// pendingEnds holds the cumulative end offset of every complete frame in
	// pending. After a partial write of n bytes, frames with end <= n are
	// durable; the rest rebase by -n and stay queued, so a retry writes the
	// exact remainder bytes and the on-disk frame stream stays well-formed.
	pendingEnds []int64
	appended    map[uint64]bool // keys queued for append this run
	writeErr    error
	closed      bool
	flushFails  int // consecutive failed write attempts
	faults      *faults.Injector

	appendedN  atomic.Int64
	retriesN   atomic.Int64
	writeErrsN atomic.Int64
	lostN      atomic.Int64
	// published holds the appended, retries, write-error and lost counts
	// already added to the registry by Publish (guarded by mu).
	published [4]int64

	// spans, when set, profiles physical flushes (layer persist.flush). The
	// profiler is used only by the single flusher goroutine; the atomic makes
	// Attach safe after the flush loop has started.
	spans atomic.Pointer[obs.SpanProfiler]

	flushCh chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
}

// OpenPersistentStore opens (creating if absent) the cache file at path and
// loads every valid record. The returned error covers I/O failures only;
// content corruption is reported by Corruption and degrades to a partial or
// empty — but always usable — store.
func OpenPersistentStore(path string) (*PersistentStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	p := &PersistentStore{
		path:     path,
		entries:  map[uint64][]persistEntry{},
		overlay:  map[uint64][]persistEntry{},
		f:        f,
		appended: map[uint64]bool{},
		flushCh:  make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	switch {
	case len(data) == 0:
		// Fresh file: stamp the header now so a run that stores nothing still
		// leaves a well-formed file behind.
		if _, err := f.Write([]byte(persistMagic)); err != nil {
			f.Close()
			return nil, err
		}
	case len(data) < len(persistMagic) || string(data[:len(persistMagic)]) != persistMagic:
		p.corrupt = fmt.Errorf("solver: cache file %s: bad magic", path)
	default:
		p.load(data[len(persistMagic):])
	}
	if p.corrupt != nil {
		// Never extend a corrupt file; keep it open read-only in spirit.
		f.Close()
		p.f = nil
	}
	p.wg.Add(1)
	go p.flushLoop()
	return p, nil
}

// load parses records until the data ends or a frame fails validation.
func (p *PersistentStore) load(data []byte) {
	pos := 0
	for pos < len(data) {
		if len(data)-pos < 4 {
			p.corrupt = fmt.Errorf("solver: cache file %s: truncated frame header", p.path)
			return
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		if n <= 0 || n > maxPersistRecord {
			p.corrupt = fmt.Errorf("solver: cache file %s: bad record length %d", p.path, n)
			return
		}
		if len(data)-pos < 4+n+4 {
			p.corrupt = fmt.Errorf("solver: cache file %s: truncated record", p.path)
			return
		}
		payload := data[pos+4 : pos+4+n]
		crc := binary.LittleEndian.Uint32(data[pos+4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			p.corrupt = fmt.Errorf("solver: cache file %s: checksum mismatch", p.path)
			return
		}
		e, err := decodePersistEntry(payload)
		if err != nil {
			p.corrupt = fmt.Errorf("solver: cache file %s: %v", p.path, err)
			return
		}
		key := canonKey(e.canon)
		dup := false
		for _, have := range p.entries[key] {
			if sameCanon(have.canon, e.canon) {
				dup = true // first entry wins, matching the in-memory cache
				break
			}
		}
		if !dup {
			p.entries[key] = append(p.entries[key], e)
			p.loaded++
		}
		pos += 4 + n + 4
	}
}

// Loaded returns the number of entries loaded at startup.
func (p *PersistentStore) Loaded() int { return p.loaded }

// Appended returns the number of entries appended during this run that are
// still on track to be durable: queued entries count, but entries dropped
// because the write-retry budget was exhausted are subtracted (see Lost).
func (p *PersistentStore) Appended() int64 { return p.appendedN.Load() }

// Retries returns the number of flush retry attempts made after failed
// writes.
func (p *PersistentStore) Retries() int64 { return p.retriesN.Load() }

// Lost returns the number of entries dropped because the write-retry budget
// was exhausted. Lost entries are subtracted from Appended.
func (p *PersistentStore) Lost() int64 { return p.lostN.Load() }

// Publish writes the store's traffic into reg: the solver.persist.loaded
// gauge, and the appended, retries, write_errors and lost counters.
// Registry counters only add, so each call adds the change since the
// previous call, which leaves every counter equal to the store's count (the
// appended delta is negative when queued entries were lost since the last
// call). Call it on every scrape and once more after Close to make the
// counts final. A store publishes into one registry. No-op on a nil store
// or registry.
func (p *PersistentStore) Publish(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	reg.Gauge(obs.MSolverPersistLoaded).Set(int64(p.loaded))
	for i, c := range [...]struct {
		name string
		n    *atomic.Int64
	}{
		{obs.MSolverPersistAppended, &p.appendedN},
		{obs.MSolverPersistRetries, &p.retriesN},
		{obs.MSolverPersistWriteErrors, &p.writeErrsN},
		{obs.MSolverPersistLost, &p.lostN},
	} {
		cur := c.n.Load()
		reg.Counter(c.name).Add(cur - p.published[i])
		p.published[i] = cur
	}
}

// SetFaults installs a fault injector consulted on every physical write
// (persist.write rules; see internal/faults). The injector is safe for
// concurrent use by the background flusher. Install it before the first
// Append for a deterministic fault schedule.
func (p *PersistentStore) SetFaults(in *faults.Injector) {
	p.mu.Lock()
	p.faults = in
	p.mu.Unlock()
}

// Attach installs run-time instruments on the store. Only Instruments.Spans
// is meaningful here: a span profiler for the background flusher — every
// physical flush attempt closes one persist.flush span (wall time only; the
// flusher never touches the virtual clock). The profiler becomes the flusher
// goroutine's private instance — do not share it with an engine. Fields left
// at their zero value keep the current attachment.
func (p *PersistentStore) Attach(in Instruments) {
	if in.Spans != nil {
		p.spans.Store(in.Spans)
	}
}

// Corruption returns the load error that stopped record parsing, or nil if
// the whole file parsed. A corrupt store still serves the valid prefix.
func (p *PersistentStore) Corruption() error { return p.corrupt }

// lookup returns the load-time entry for the canonical query, confirming
// the candidate entries pointer-wise (decoded expressions are re-interned, so
// equality is pointer identity). The returned model is owned by the store;
// callers clone before mutating. cost is the recorded propagation count of
// the original solve. Only PersistView reads through it.
func (p *PersistentStore) lookup(key uint64, canon []*symexpr.Expr) (Result, symexpr.Assignment, int64, bool) {
	for _, e := range p.entries[key] {
		if sameCanon(e.canon, canon) {
			return e.result, e.model, e.cost, true
		}
	}
	return Unknown, nil, 0, false
}

// View snapshots the store's answerable set at call time: the load-time
// entries plus every entry published by Appends that completed before the
// snapshot. A View is immutable — concurrent Appends publish only into later
// Views — so a job solving against one View is as deterministic as a CLI run
// against a freshly loaded store with the same content. View is cheap (one
// shallow map copy) and safe to call concurrently with Appends. A nil store
// yields a nil View, which never answers and forwards nothing.
func (p *PersistentStore) View() *PersistView {
	if p == nil {
		return nil
	}
	p.ovMu.RLock()
	ov := make(map[uint64][]persistEntry, len(p.overlay))
	for k, v := range p.overlay {
		ov[k] = v // bucket slices are copy-on-publish, safe to alias
	}
	p.ovMu.RUnlock()
	return &PersistView{store: p, overlay: ov}
}

// PersistView is a point-in-time view of a PersistentStore and the only way
// to read one: lookups answer from the store's load-time entries plus the
// overlay snapshot taken at View time; appends forward to the store (queued
// for disk and published to later views). All methods are nil-receiver
// safe.
type PersistView struct {
	store   *PersistentStore
	overlay map[uint64][]persistEntry
}

// Lookup returns the stored result for the canonical query from the view's
// fixed answerable set. The returned model is owned by the store; callers
// clone before mutating. cost is the recorded propagation count of the
// original solve.
func (v *PersistView) Lookup(key uint64, canon []*symexpr.Expr) (Result, symexpr.Assignment, int64, bool) {
	if v == nil {
		return Unknown, nil, 0, false
	}
	if r, m, cost, ok := v.store.lookup(key, canon); ok {
		return r, m, cost, true
	}
	for _, e := range v.overlay[key] {
		if sameCanon(e.canon, canon) {
			return e.result, e.model, e.cost, true
		}
	}
	return Unknown, nil, 0, false
}

// Append forwards a solved query to the backing store.
func (v *PersistView) Append(key uint64, canon []*symexpr.Expr, r Result, m symexpr.Assignment, cost int64) {
	if v == nil {
		return
	}
	v.store.Append(key, canon, r, m, cost)
}

// Append queues a solved query for the background flusher and publishes it
// for Views created afterwards. Results read from other cache layers must
// not be appended (the solver only appends after an actual oneshot solve).
// Appends never become visible to Views taken before the append — within one
// run the in-memory QueryCache serves them. Nil-receiver safe.
func (p *PersistentStore) Append(key uint64, canon []*symexpr.Expr, r Result, m symexpr.Assignment, cost int64) {
	if p == nil || r == Unknown || len(canon) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil || p.closed || p.writeErr != nil || p.appended[key] {
		return
	}
	if onDisk, ok := p.entries[key]; ok {
		already := false
		for _, e := range onDisk {
			if sameCanon(e.canon, canon) {
				already = true
				break
			}
		}
		if already {
			return
		}
	}
	p.appended[key] = true
	payload := encodePersistEntry(canon, r, m, cost)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	p.pending = append(p.pending, u32[:]...)
	p.pending = append(p.pending, payload...)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
	p.pending = append(p.pending, u32[:]...)
	p.pendingEnds = append(p.pendingEnds, int64(len(p.pending)))
	p.appendedN.Add(1)
	// Publish for later Views. Clones keep the published entry independent of
	// the caller, which mutates the model right after Append (merge into the
	// returned assignment). Copy-on-publish: the stored bucket slice is never
	// mutated again, so View may alias it lock-free.
	e := persistEntry{
		canon:  append([]*symexpr.Expr(nil), canon...),
		result: r,
		cost:   cost,
	}
	if r == Sat && m != nil {
		e.model = m.Clone()
	}
	p.ovMu.Lock()
	bucket := p.overlay[key]
	nb := make([]persistEntry, len(bucket)+1)
	copy(nb, bucket)
	nb[len(bucket)] = e
	p.overlay[key] = nb
	p.ovMu.Unlock()
	select {
	case p.flushCh <- struct{}{}:
	default:
	}
}

func (p *PersistentStore) flushLoop() {
	defer p.wg.Done()
	t := time.NewTicker(persistFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-p.flushCh:
		case <-t.C:
		}
		p.flushWithBackoff(p.done)
	}
}

// flushWithBackoff drives flush until the pending buffer drains, the retry
// budget disables appends, or stop closes. Failed writes back off with a
// capped exponential delay before retrying; a nil stop (the Close path)
// retries unconditionally — termination is still bounded by maxFlushRetries.
func (p *PersistentStore) flushWithBackoff(stop <-chan struct{}) {
	for attempt := 0; ; attempt++ {
		err, retryable := p.flush()
		if err == nil || !retryable {
			return
		}
		d := time.Millisecond << uint(min(attempt, 6))
		if stop == nil {
			time.Sleep(d)
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(d):
		}
	}
}

// flush attempts one physical write of the pending buffer. Frames are
// appended whole, so a crash mid-run leaves at worst a truncated final
// frame, which the next load treats as the end of the file. On a failed or
// short write the unwritten remainder is retained (prepended to whatever
// queued meanwhile) so a retry resumes the byte stream exactly; entries are
// only dropped — loudly, via writeErr and the lost counters — after
// maxFlushRetries consecutive failed attempts. The bool result reports
// whether the caller should retry.
func (p *PersistentStore) flush() (error, bool) {
	p.mu.Lock()
	if p.writeErr != nil || p.f == nil || len(p.pending) == 0 {
		err := p.writeErr
		p.mu.Unlock()
		return err, false
	}
	if p.flushFails > 0 {
		p.retriesN.Add(1)
	}
	buf := p.pending
	ends := p.pendingEnds
	p.pending, p.pendingEnds = nil, nil
	f := p.f
	in := p.faults
	p.mu.Unlock()

	// One persist.flush span per physical write attempt: wall time only, the
	// flusher never touches the virtual clock.
	sp := p.spans.Load().Start(obs.SpanPersistFlush)
	n, err := writeFaulty(f, buf, in)
	sp.End(0)
	if err == nil {
		p.mu.Lock()
		p.flushFails = 0
		p.mu.Unlock()
		return nil, false
	}
	p.writeErrsN.Add(1)
	if n < 0 {
		n = 0
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushFails++
	// Durable prefix: frames whose end landed within the n written bytes.
	// The remainder rebases by -n and goes back to the head of the queue,
	// ahead of frames appended while the write was in flight.
	rem := buf[n:]
	merged := make([]byte, 0, len(rem)+len(p.pending))
	merged = append(merged, rem...)
	merged = append(merged, p.pending...)
	rebased := make([]int64, 0, len(ends)+len(p.pendingEnds))
	for _, e := range ends {
		if e > int64(n) {
			rebased = append(rebased, e-int64(n))
		}
	}
	for _, e := range p.pendingEnds {
		rebased = append(rebased, e+int64(len(rem)))
	}
	p.pending, p.pendingEnds = merged, rebased
	if p.flushFails >= maxFlushRetries {
		lost := int64(len(p.pendingEnds))
		p.lostN.Add(lost)
		p.appendedN.Add(-lost)
		p.pending, p.pendingEnds = nil, nil
		p.writeErr = fmt.Errorf("solver: cache file %s: appends disabled after %d failed write attempts (%d entries lost): %v",
			p.path, p.flushFails, lost, err)
		return p.writeErr, false
	}
	return err, true
}

// writeFaulty is the physical write, routed through the fault injector when
// one is installed. Short mode writes half the buffer for real before
// failing, so the partial-write retention path is exercised end to end.
func writeFaulty(f *os.File, buf []byte, in *faults.Injector) (int, error) {
	switch in.FireWrite() {
	case faults.WriteErr:
		return 0, errInjectedWrite
	case faults.WriteShort:
		n, err := f.Write(buf[:len(buf)/2])
		if err == nil {
			err = errInjectedShortWrite
		}
		return n, err
	}
	return f.Write(buf)
}

var (
	errInjectedWrite      = errors.New("injected persist write fault")
	errInjectedShortWrite = errors.New("injected short persist write")
)

// Close stops the flusher, writes any pending entries (retrying failed
// writes up to the retry budget) and closes the file. A non-nil error means
// entries were lost or the file did not close cleanly — CLI callers exit
// nonzero on it. It is idempotent.
func (p *PersistentStore) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	p.wg.Wait()
	p.flushWithBackoff(nil)
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.writeErr
	if p.f != nil {
		if cerr := p.f.Close(); err == nil {
			err = cerr
		}
		p.f = nil
	}
	return err
}

// encodePersistEntry serializes one record payload. Model variables are
// written in a deterministic order so identical runs produce identical files.
func encodePersistEntry(canon []*symexpr.Expr, r Result, m symexpr.Assignment, cost int64) []byte {
	out := []byte{byte(r)}
	out = binary.AppendUvarint(out, uint64(cost))
	out = binary.AppendUvarint(out, uint64(len(canon)))
	for _, c := range canon {
		out = symexpr.AppendExpr(out, c)
	}
	if r != Sat || m == nil {
		return binary.AppendUvarint(out, 0)
	}
	vars := make([]symexpr.Var, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool {
		a, b := vars[i], vars[j]
		if a.Buf != b.Buf {
			return a.Buf < b.Buf
		}
		if a.Idx != b.Idx {
			return a.Idx < b.Idx
		}
		return a.W < b.W
	})
	out = binary.AppendUvarint(out, uint64(len(vars)))
	for _, v := range vars {
		out = symexpr.AppendExpr(out, symexpr.NewVar(v))
		out = binary.AppendUvarint(out, m[v]&v.W.Mask())
	}
	return out
}

// decodePersistEntry parses and validates one record payload. Every
// structural property the writer guarantees is checked, so hostile bytes
// yield an error, never a malformed entry.
func decodePersistEntry(payload []byte) (persistEntry, error) {
	var e persistEntry
	if len(payload) == 0 {
		return e, fmt.Errorf("empty record")
	}
	switch Result(payload[0]) {
	case Sat, Unsat:
		e.result = Result(payload[0])
	default:
		return e, fmt.Errorf("bad result tag %d", payload[0])
	}
	pos := 1
	cost, n := binary.Uvarint(payload[pos:])
	if n <= 0 || cost > 1<<62 {
		return e, fmt.Errorf("bad cost field")
	}
	e.cost = int64(cost)
	pos += n
	ncons, n := binary.Uvarint(payload[pos:])
	if n <= 0 || ncons == 0 || ncons > maxPersistConstraints {
		return e, fmt.Errorf("bad constraint count")
	}
	pos += n
	e.canon = make([]*symexpr.Expr, 0, ncons)
	for i := uint64(0); i < ncons; i++ {
		c, used, err := symexpr.DecodeExpr(payload[pos:])
		if err != nil {
			return e, err
		}
		if c.Width() != symexpr.W1 {
			return e, fmt.Errorf("constraint of width %d", c.Width())
		}
		e.canon = append(e.canon, c)
		pos += used
	}
	nm, n := binary.Uvarint(payload[pos:])
	if n <= 0 || nm > maxPersistConstraints {
		return e, fmt.Errorf("bad model count")
	}
	pos += n
	if e.result == Unsat && nm != 0 {
		return e, fmt.Errorf("model on unsat record")
	}
	if e.result == Sat {
		e.model = symexpr.Assignment{}
	}
	for i := uint64(0); i < nm; i++ {
		ve, used, err := symexpr.DecodeExpr(payload[pos:])
		if err != nil {
			return e, err
		}
		if !ve.IsVar() {
			return e, fmt.Errorf("model key is not a variable")
		}
		pos += used
		val, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return e, fmt.Errorf("bad model value")
		}
		pos += n
		v := ve.VarRef()
		if val&^v.W.Mask() != 0 {
			return e, fmt.Errorf("model value %d exceeds width %d", val, v.W)
		}
		if _, dup := e.model[v]; dup {
			return e, fmt.Errorf("duplicate model variable")
		}
		e.model[v] = val
	}
	if pos != len(payload) {
		return e, fmt.Errorf("trailing bytes in record")
	}
	return e, nil
}
