package core

import (
	"container/list"
	"sync"
)

// lru is the one byte-budgeted LRU behind ArtifactCache and
// OutcomeCache. Eviction is strict LRU by recency of Get/Put, driven by
// the byte budget rather than an entry count: entry sizes vary by
// orders of magnitude. The newest entry is always retained even when
// it alone exceeds the budget — evicting what was just inserted would
// turn an undersized budget into a recompute storm, the exact failure
// mode the caches exist to absorb.
//
// Keys are compared in full (K is the map key), so two distinct keys
// never share a slot whatever their hashes do.
type lru[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *lruEntry[K, V]
	items  map[K]*list.Element

	// admit, when set, is consulted (under mu) before a key that is not
	// resident is inserted; returning false rejects the insert. Resident
	// keys are always replaced in place.
	admit func(K) bool

	hits, misses, evictions, inserts int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats struct {
	Hits, Misses, Evictions, Inserts int64
	Entries                          int
	Bytes, Budget                    int64
}

// init readies an empty cache; a non-positive budget takes def.
func (c *lru[K, V]) init(budget, def int64, admit func(K) bool) {
	if budget <= 0 {
		budget = def
	}
	c.budget = budget
	c.ll = list.New()
	c.items = make(map[K]*list.Element)
	c.admit = admit
}

// Get returns the value cached under key, marking it most recently
// used.
func (c *lru[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Peek returns the cached value without counting a hit or miss and
// without touching recency. Observability paths (status endpoints,
// snapshot streaming) use it so probes don't skew the statistics or
// the eviction order the serving path depends on.
func (c *lru[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// put inserts (or replaces in place) the value under key with the
// given size, then evicts least-recently-used entries until the cache
// is back within budget (never the entry just inserted). It reports the
// number of entries evicted and whether the value is now resident.
func (c *lru[K, V]) put(key K, val V, size int64) (evicted int, admitted bool) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[K, V])
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		if c.admit != nil && !c.admit(key) {
			return 0, false
		}
		c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val, size: size})
		c.bytes += size
		c.inserts++
	}
	for c.bytes > c.budget && c.ll.Len() > 1 {
		c.remove(c.ll.Back())
		evicted++
	}
	return evicted, true
}

// Evict removes the entry for the key, reporting whether one existed.
// The serving tier's cache.evict and outcome.evict fault sites call
// this to simulate memory pressure deterministically.
func (c *lru[K, V]) Evict(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.remove(el)
	}
	return ok
}

// remove unlinks the element and counts the eviction; callers hold mu.
func (c *lru[K, V]) remove(el *list.Element) {
	e := el.Value.(*lruEntry[K, V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.evictions++
}

// Len returns the number of cached entries.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache counters and occupancy.
func (c *lru[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Inserts: c.inserts, Entries: c.ll.Len(),
		Bytes: c.bytes, Budget: c.budget,
	}
}
