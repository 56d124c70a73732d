package solver

import "chef/internal/symexpr"

// QueryCache is the solver's in-memory counterexample cache: an exact memo
// of CNF-level query outcomes. It is keyed by an order-sensitive hash over
// the canonicalized constraint set — the set that survives constant
// filtering, independent-constraint slicing and Compare-ordering — and
// hash-consing makes entry confirmation a pointer-slice comparison.
//
// Every Solver owns a private QueryCache and, like the Solver, it serves a
// single goroutine, so it needs no locks. Entries are spread over a fixed
// number of partitions, each with its own FIFO eviction queue. Cache hits
// are free on the virtual clock, so which entry an insert evicts is
// observable output; the partitioning and eviction order are therefore part
// of the determinism contract, not a tuning knob.
//
// Determinism note: queries are solved in canonical constraint order, so the
// result *and model* of a solved query are a pure function of the constraint
// set, and a Solver with its private cache is fully deterministic.
type QueryCache struct {
	shards [cacheShardCount]cacheShard

	// perShardCap bounds the number of entries per partition; inserting
	// beyond it evicts the partition's oldest entry (FIFO).
	perShardCap int
	evictions   int64
}

const (
	cacheShardCount = 16

	// DefaultCacheCapacity is the default total entry bound of a QueryCache.
	DefaultCacheCapacity = 1 << 16
)

type cacheShard struct {
	m map[uint64][]cachedQuery
	// order records insertion order of bucket keys, one element per stored
	// entry, for exact FIFO eviction.
	order []uint64
}

type cachedQuery struct {
	key    []*symexpr.Expr
	result Result
	model  symexpr.Assignment
}

// CacheStats is a snapshot of the cache's occupancy. Hit and miss counts
// live in the owning Solver's Stats.
type CacheStats struct {
	Evictions int64
	Entries   int64
}

// Add folds another snapshot into s, field by field — the merge helper for
// aggregating per-cell snapshots (sharded sessions own one cache per cell).
func (s *CacheStats) Add(o CacheStats) {
	s.Evictions += o.Evictions
	s.Entries += o.Entries
}

// NewQueryCache builds a cache bounded to roughly capacity entries
// (0 means DefaultCacheCapacity).
func NewQueryCache(capacity int) *QueryCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	per := capacity / cacheShardCount
	if per < 1 {
		per = 1
	}
	c := &QueryCache{perShardCap: per}
	for i := range c.shards {
		c.shards[i].m = map[uint64][]cachedQuery{}
	}
	return c
}

func (c *QueryCache) shard(key uint64) *cacheShard {
	// The key is already a mixed hash; fold the high bits so partition
	// selection does not correlate with bucket selection.
	return &c.shards[(key^key>>32)%cacheShardCount]
}

// sameCanon reports equality of two canonicalized constraint slices. Both
// sides are sorted by symexpr.Compare and interned, so equality is an
// element-wise pointer comparison.
func sameCanon(a, b []*symexpr.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup returns the memoized result for the canonicalized query, if
// present. The returned model is owned by the cache and must not be mutated;
// callers clone before merging (as Solver.Check does).
func (c *QueryCache) Lookup(key uint64, canon []*symexpr.Expr) (Result, symexpr.Assignment, bool) {
	for _, q := range c.shard(key).m[key] {
		if sameCanon(q.key, canon) {
			return q.result, q.model, true
		}
	}
	return Unknown, nil, false
}

// Store memoizes a query result under its canonical key. Callers store a
// query only after its Lookup missed, so the cache never holds duplicates.
// The constraint slice and model are cloned so later mutation by the caller
// cannot corrupt the cache.
func (c *QueryCache) Store(key uint64, canon []*symexpr.Expr, r Result, m symexpr.Assignment) {
	cs := append([]*symexpr.Expr(nil), canon...)
	var mc symexpr.Assignment
	if m != nil {
		mc = m.Clone()
	}
	sh := c.shard(key)
	sh.m[key] = append(sh.m[key], cachedQuery{cs, r, mc})
	sh.order = append(sh.order, key)
	if len(sh.order) > c.perShardCap {
		old := sh.order[0]
		sh.order = sh.order[1:]
		if bucket := sh.m[old]; len(bucket) > 0 {
			if len(bucket) == 1 {
				delete(sh.m, old)
			} else {
				sh.m[old] = bucket[1:]
			}
			c.evictions++
		}
	}
}

// Len returns the current number of cached entries.
func (c *QueryCache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].order)
	}
	return n
}

// Stats snapshots the cache's occupancy.
func (c *QueryCache) Stats() CacheStats {
	return CacheStats{Evictions: c.evictions, Entries: int64(c.Len())}
}
