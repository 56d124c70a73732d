package solver

import (
	"fmt"
	"reflect"
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

// TestQueryCacheOverlappingTraffic drives one cache with interleaved
// Lookup/Store traffic from many logical clients over an overlapping query
// space. Every hit must return what was stored, and entries never exceed
// the number of distinct queries: a query is stored only after it missed.
func TestQueryCacheOverlappingTraffic(t *testing.T) {
	const (
		clients = 16
		rounds  = 400
		space   = 150 // distinct queries, overlapping across clients
	)
	c := NewQueryCache(0)
	var hits, stores int64
	for r := 0; r < rounds; r++ {
		for w := 0; w < clients; w++ {
			i := (w + r) % space
			q := stressQuery(i)
			key := canonKey(q)
			res, m, ok := c.Lookup(key, q)
			if !ok {
				c.Store(key, q, Sat, stressModel(i))
				stores++
				continue
			}
			hits++
			want := stressModel(i)
			if res != Sat || len(m) != len(want) {
				t.Fatalf("query %d: cached %v %v, want Sat %v", i, res, m, want)
			}
			for k, v := range want {
				if m[k] != v {
					t.Fatalf("query %d: cached model %v, want %v", i, m, want)
				}
			}
		}
	}
	s := c.Stats()
	if hits == 0 {
		t.Fatal("no hits despite overlapping query space")
	}
	if s.Entries > int64(space) {
		t.Fatalf("entries = %d, want <= %d distinct queries", s.Entries, space)
	}
	if s.Entries != stores-s.Evictions {
		t.Fatalf("entries (%d) != stores (%d) - evictions (%d)", s.Entries, stores, s.Evictions)
	}
}

// TestQueryCacheEviction fills a small cache with ten times its capacity
// of distinct queries and checks exact FIFO residency: precisely the last
// capacity stores survive, and every other store was evicted.
func TestQueryCacheEviction(t *testing.T) {
	const capacity = 16
	c := NewQueryCache(capacity)
	const n = 10 * capacity
	for i := 0; i < n; i++ {
		q := stressQuery(i)
		c.Store(canonKey(q), q, Unsat, nil)
	}
	s := c.Stats()
	if s.Entries != capacity || s.Evictions != n-capacity {
		t.Fatalf("entries = %d, evictions = %d; want %d and %d", s.Entries, s.Evictions, capacity, n-capacity)
	}
	for i := 0; i < n; i++ {
		q := stressQuery(i)
		_, _, ok := c.Lookup(canonKey(q), q)
		if want := i >= n-capacity; ok != want {
			t.Fatalf("query %d: resident = %v, want %v", i, ok, want)
		}
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
	if st.CacheHitsExact != st.CacheHits {
		t.Fatalf("exact hits (%d) != hits (%d) with no persistent layer", st.CacheHitsExact, st.CacheHits)
	}
	if st.CacheHits == 0 {
		t.Fatal("repeated identical queries produced no hits")
	}
}

// TestExactHitDoesNotMutateCachedModel: a Sat exact hit returns a fresh map
// (the slicer's kept values with the cached model over them), so a caller
// writing to it cannot corrupt the cached model that later hits return.
func TestExactHitDoesNotMutateCachedModel(t *testing.T) {
	x := symexpr.NewVar(symexpr.Var{Buf: "hit", Idx: 0, W: symexpr.W8})
	y := symexpr.NewVar(symexpr.Var{Buf: "hit", Idx: 1, W: symexpr.W8})
	q := Query{
		PC: []*symexpr.Expr{
			symexpr.Eq(y, symexpr.Const(5, symexpr.W8)),   // kept at its base value
			symexpr.Ult(x, symexpr.Const(10, symexpr.W8)), // false under the base: solved
		},
		Base: symexpr.Assignment{x.VarRef(): 50, y.VarRef(): 5},
	}
	s := New(Options{})
	res, first := s.CheckQuery(q)
	if res != Sat || len(first) != 2 || first[y.VarRef()] != 5 || first[x.VarRef()] >= 10 {
		t.Fatalf("first query: %v %v, want Sat with y=5 and x<10", res, first)
	}
	want := first.Clone()
	res, hit := s.CheckQuery(q)
	if res != Sat || !reflect.DeepEqual(hit, want) {
		t.Fatalf("exact hit: %v %v, want Sat %v", res, hit, want)
	}
	hit[x.VarRef()] = 200
	hit[y.VarRef()] = 99
	hit[symexpr.Var{Buf: "hit", Idx: 2, W: symexpr.W8}] = 1
	res, again := s.CheckQuery(q)
	if res != Sat || !reflect.DeepEqual(again, want) {
		t.Fatalf("after writing to a hit's model: %v %v, want Sat %v", res, again, want)
	}
	if st := s.Stats(); st.CacheHitsExact != 2 || st.CacheMisses != 1 {
		t.Fatalf("stats %+v, want 2 exact hits and 1 miss", st)
	}
}
