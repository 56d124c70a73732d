package solver

import (
	"fmt"
	"sync"
	"testing"

	"chef/internal/symexpr"
)

// stressQuery builds the i-th synthetic query: a single constraint
// x_i == i over a fresh 32-bit variable, structurally distinct per i.
func stressQuery(i int) []*symexpr.Expr {
	v := symexpr.NewVar(symexpr.Var{Buf: fmt.Sprintf("v%d", i%97), Idx: i % 13, W: symexpr.W32})
	return []*symexpr.Expr{symexpr.Eq(v, symexpr.Const(uint64(i), symexpr.W32))}
}

func stressModel(i int) symexpr.Assignment {
	return symexpr.Assignment{
		{Buf: fmt.Sprintf("v%d", i%97), Idx: i % 13, W: symexpr.W32}: uint64(i),
	}
}

// TestQueryCacheConcurrentStress hammers one shared cache from many
// goroutines with overlapping Lookup/Store traffic. Run under -race this
// validates the sharded locking; afterwards the counters must balance
// exactly: every Lookup is either a hit or a miss, and entries never exceed
// the configured capacity.
func TestQueryCacheConcurrentStress(t *testing.T) {
	const (
		workers = 16
		rounds  = 400
		space   = 150 // distinct queries, overlapping across workers
	)
	c := NewQueryCache(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % space
				q := stressQuery(i)
				key := canonKey(q)
				if res, m, ok := c.Lookup(key, q); ok {
					if res != Sat {
						t.Errorf("query %d: cached result %v, want Sat", i, res)
						return
					}
					want := stressModel(i)
					if len(m) != len(want) {
						t.Errorf("query %d: cached model %v, want %v", i, m, want)
						return
					}
					for k, v := range want {
						if m[k] != v {
							t.Errorf("query %d: cached model %v, want %v", i, m, want)
							return
						}
					}
				} else {
					c.Miss()
					c.Store(key, q, Sat, stressModel(i))
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if s.Queries != int64(workers*rounds) {
		t.Fatalf("queries = %d, want %d", s.Queries, workers*rounds)
	}
	if s.Hits+s.Misses != s.Queries {
		t.Fatalf("hits (%d) + misses (%d) != queries (%d)", s.Hits, s.Misses, s.Queries)
	}
	if s.Hits == 0 {
		t.Fatal("no hits despite overlapping query space")
	}
	// Distinct queries bound entries; double-insert suppression keeps one
	// entry per distinct query even when two goroutines race the same miss.
	if s.Entries > int64(space) {
		t.Fatalf("entries = %d, want <= %d distinct queries", s.Entries, space)
	}
	if s.Entries != s.Stores-s.Evictions {
		t.Fatalf("entries (%d) != stores (%d) - evictions (%d)", s.Entries, s.Stores, s.Evictions)
	}
}

// TestQueryCacheEviction fills a tiny cache beyond capacity and checks FIFO
// eviction keeps the entry count bounded while the counters stay consistent.
func TestQueryCacheEviction(t *testing.T) {
	const capacity = cacheShardCount // 1 entry per shard
	c := NewQueryCache(capacity)
	const n = 10 * capacity
	for i := 0; i < n; i++ {
		q := stressQuery(i)
		c.Store(canonKey(q), q, Unsat, nil)
	}
	s := c.Stats()
	if s.Entries > int64(capacity) {
		t.Fatalf("entries = %d, want <= %d", s.Entries, capacity)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite exceeding capacity")
	}
	if s.Entries != s.Stores-s.Evictions {
		t.Fatalf("entries (%d) != stores (%d) - evictions (%d)", s.Entries, s.Stores, s.Evictions)
	}
	// The most recently stored queries must still be resident (FIFO evicts
	// oldest first); with 1 slot per shard the latest store of each shard
	// wins, so at least one of the last cacheShardCount queries must hit.
	hit := false
	for i := n - capacity; i < n; i++ {
		q := stressQuery(i)
		if _, _, ok := c.Lookup(canonKey(q), q); ok {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("none of the most recent queries survived eviction")
	}
}

// TestQueryCacheCollision pins the exact-confirmation path: two different
// queries forced under the same key must not be confused.
func TestQueryCacheCollision(t *testing.T) {
	c := NewQueryCache(0)
	q1 := stressQuery(1)
	q2 := stressQuery(2)
	const key = 42 // same (wrong) key for both: a forced collision
	c.Store(key, q1, Sat, stressModel(1))
	c.Store(key, q2, Unsat, nil)
	if r, _, ok := c.Lookup(key, q1); !ok || r != Sat {
		t.Fatalf("q1 under colliding key: ok=%v r=%v, want Sat hit", ok, r)
	}
	if r, _, ok := c.Lookup(key, q2); !ok || r != Unsat {
		t.Fatalf("q2 under colliding key: ok=%v r=%v, want Unsat hit", ok, r)
	}
	if _, _, ok := c.Lookup(key, stressQuery(3)); ok {
		t.Fatal("unrelated query hit under colliding key")
	}
}

// TestSolverCacheAccounting checks the solver-level invariant surfaced in
// Stats: every cacheable query is either a hit or a miss.
func TestSolverCacheAccounting(t *testing.T) {
	s := New(Options{})
	v := symexpr.NewVar(symexpr.Var{Buf: "x", W: symexpr.W32})
	for i := 0; i < 8; i++ {
		pc := []*symexpr.Expr{symexpr.Ult(v, symexpr.Const(uint64(10+i%2), symexpr.W32))}
		if res, _ := s.CheckQuery(Query{PC: pc}); res != Sat {
			t.Fatalf("query %d: %v, want Sat", i, res)
		}
	}
	st := s.Stats()
	if st.CacheHits+st.CacheMisses == 0 {
		t.Fatal("no cache traffic recorded")
	}
	if st.CacheHits+st.CacheMisses > st.Queries {
		t.Fatalf("hits (%d) + misses (%d) > queries (%d)", st.CacheHits, st.CacheMisses, st.Queries)
	}
	cs := s.Cache().Stats()
	if cs.Hits != st.CacheHits || cs.Misses != st.CacheMisses {
		t.Fatalf("solver stats (hits %d, misses %d) disagree with cache stats (%d, %d)",
			st.CacheHits, st.CacheMisses, cs.Hits, cs.Misses)
	}
	if cs.Hits == 0 {
		t.Fatal("repeated identical queries produced no hits")
	}
}
