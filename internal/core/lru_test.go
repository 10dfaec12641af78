package core

import (
	"sync"
	"testing"
)

// The LRU behaviours are written once, against lruFace, and run against
// both exported instantiations: cache_test.go and outcome_cache_test.go
// hold only the entry points and what is specific to each cache (the
// doorkeeper, the key hash, the size estimates).

// lruFace adapts one instantiation to the shared cases. Small integer
// ids stand in for keys; put inserts a fresh value of the given
// accounted size under id — past any admission hook — and returns that
// value (compared by identity) with the number of entries evicted; idOf
// reads back the id a value was put under.
type lruFace struct {
	get, peek func(id int) (any, bool)
	put       func(id int, size int64) (val any, evicted int)
	idOf      func(val any) int
	evict     func(id int) bool
	len       func() int
	stats     func() CacheStats
}

// lruUnit is the size quantum of the shared cases: large enough that an
// outcome body can be padded to any multiple of it.
const lruUnit = 1 << 10

func lruHitMissEvictOrder(t *testing.T, newCache func(budget int64) lruFace) {
	c := newCache(10 * lruUnit)
	if _, ok := c.get(1); ok {
		t.Fatal("hit on empty cache")
	}
	v1, _ := c.put(1, 4*lruUnit)
	c.put(2, 4*lruUnit)
	if got, ok := c.get(1); !ok || got != v1 {
		t.Fatal("lost entry 1")
	}
	// Entry 2 is now LRU; four more units must evict it, not 1.
	if _, n := c.put(3, 4*lruUnit); n != 1 {
		t.Fatalf("put evicted %d entries, want 1", n)
	}
	if _, ok := c.get(2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if got, ok := c.get(1); !ok || got != v1 {
		t.Fatal("recently used entry 1 was evicted")
	}
	st := c.stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Inserts != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 2 || st.Bytes != 8*lruUnit || st.Budget != 10*lruUnit {
		t.Fatalf("occupancy = %+v", st)
	}
}

// The budget never evicts the entry just inserted, even when that entry
// alone exceeds the whole budget.
func lruNewestSurvivesOversized(t *testing.T, newCache func(budget int64) lruFace) {
	c := newCache(2 * lruUnit)
	c.put(1, lruUnit)
	big, _ := c.put(2, 100*lruUnit)
	if got, ok := c.get(2); !ok || got != big {
		t.Fatal("oversized newest entry must be retained")
	}
	if _, ok := c.get(1); ok {
		t.Fatal("older entry should have been evicted to make room")
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func lruReplaceInPlaceAndEvict(t *testing.T, newCache func(budget int64) lruFace) {
	c := newCache(10 * lruUnit)
	c.put(7, 3*lruUnit)
	v2, _ := c.put(7, 5*lruUnit) // replace in place: no new insert, bytes re-accounted
	st := c.stats()
	if st.Inserts != 1 || st.Entries != 1 || st.Bytes != 5*lruUnit {
		t.Fatalf("after replace: %+v", st)
	}
	if got, _ := c.get(7); got != v2 {
		t.Fatal("replace did not swap the value")
	}
	if !c.evict(7) || c.evict(7) {
		t.Fatal("evict should succeed once then report absent")
	}
	if st := c.stats(); st.Bytes != 0 || st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("after evict: %+v", st)
	}
}

// Peek serves the value but leaves the counters and the eviction order
// exactly as a cache nobody probed.
func lruPeekIsNeutral(t *testing.T, newCache func(budget int64) lruFace) {
	c := newCache(10 * lruUnit)
	v1, _ := c.put(1, 4*lruUnit)
	c.put(2, 4*lruUnit)
	before := c.stats()
	if got, ok := c.peek(1); !ok || got != v1 {
		t.Fatal("peek missed a resident entry")
	}
	if _, ok := c.peek(9); ok {
		t.Fatal("peek hit an absent entry")
	}
	if after := c.stats(); after != before {
		t.Fatalf("peek moved the counters: %+v -> %+v", before, after)
	}
	// Entry 1 is still the least recently used: a get would have saved it.
	c.put(3, 4*lruUnit)
	if _, ok := c.peek(1); ok {
		t.Fatal("peek refreshed recency: entry 1 outlived entry 2")
	}
	if _, ok := c.peek(2); !ok {
		t.Fatal("entry 2 was evicted ahead of the older entry 1")
	}
}

func lruConcurrent(t *testing.T, newCache func(budget int64) lruFace) {
	c := newCache(8 * lruUnit)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := i % 17
				if v, ok := c.get(id); !ok {
					c.put(id, lruUnit)
				} else if got := c.idOf(v); got != id {
					t.Errorf("get(%d) served the value put under %d", id, got)
					return
				}
				if i%31 == 0 {
					c.evict(id)
				}
				c.peek(id)
			}
		}()
	}
	wg.Wait()
	st := c.stats()
	if st.Bytes < 0 || st.Bytes > st.Budget || st.Entries > 17 || st.Entries != c.len() {
		t.Fatalf("inconsistent occupancy after concurrent use: %+v", st)
	}
}
