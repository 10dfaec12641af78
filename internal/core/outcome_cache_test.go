package core

import (
	"testing"

	"repro/internal/core/discovery"
)

func okey(qa int) OutcomeKey {
	return OutcomeKey{
		SigHash: 0xfeed, Workload: "EQ", Strategy: "spillbound",
		QA: qa, ExecWorkers: 4, Lambda: 0.2,
	}
}

// outcomeFace adapts the outcome cache to the shared LRU cases: the
// accounted size of a body-only value is its length plus the fixed
// overhead, so the body is padded to land exactly on size (its first
// byte carries the id).
func outcomeFace(budget int64) lruFace {
	c := NewOutcomeCache(budget)
	overhead := EstimateOutcomeBytes(&CachedOutcome{})
	return lruFace{
		get:  func(id int) (any, bool) { return c.Get(okey(id)) },
		peek: func(id int) (any, bool) { return c.Peek(okey(id)) },
		put: func(id int, size int64) (any, int) {
			v := &CachedOutcome{Body: make([]byte, size-overhead)}
			v.Body[0] = byte(id)
			evicted, admitted := c.Put(okey(id), v)
			if !admitted { // first offer: the doorkeeper recorded it
				evicted, _ = c.Put(okey(id), v)
			}
			return v, evicted
		},
		idOf:  func(v any) int { return int(v.(*CachedOutcome).Body[0]) },
		evict: func(id int) bool { return c.Evict(okey(id)) },
		len:   c.Len,
		stats: c.Stats,
	}
}

func TestOutcomeCacheHitMissEvictLRU(t *testing.T) { lruHitMissEvictOrder(t, outcomeFace) }
func TestOutcomeCacheBudgetAndNewestSurvives(t *testing.T) {
	lruNewestSurvivesOversized(t, outcomeFace)
}
func TestOutcomeCacheReplaceAndEvict(t *testing.T) { lruReplaceInPlaceAndEvict(t, outcomeFace) }
func TestOutcomeCachePeekIsNeutral(t *testing.T)   { lruPeekIsNeutral(t, outcomeFace) }
func TestOutcomeCacheConcurrent(t *testing.T)      { lruConcurrent(t, outcomeFace) }

func oval(body string) *CachedOutcome {
	return &CachedOutcome{
		Outcome: &discovery.Outcome{Completed: true, TotalCost: 1},
		Body:    []byte(body),
	}
}

// mustPut inserts past the doorkeeper: the first offer of a new key is
// recorded and rejected, the second admitted.
func mustPut(t *testing.T, c *OutcomeCache, k OutcomeKey, v *CachedOutcome) int {
	t.Helper()
	if _, admitted := c.Put(k, v); admitted {
		return 0
	}
	evicted, admitted := c.Put(k, v)
	if !admitted {
		t.Fatalf("second offer of %+v was not admitted", k)
	}
	return evicted
}

// Every field of the key must separate hashes: a field the hash
// ignored would let two different executions alias one cache slot.
func TestOutcomeKeyHashCoversEveryField(t *testing.T) {
	base := OutcomeKey{
		SigHash: 1, Workload: "EQ", Strategy: "spillbound",
		QA: 3, ExecWorkers: 2, FaultSeed: 7, FaultRate: 0.1,
		Lambda: 0.2, Epoch: 5,
	}
	variants := []OutcomeKey{base, base, base, base, base, base, base, base, base}
	variants[0].SigHash = 2
	variants[1].Workload = "2D_Q91"
	variants[2].Strategy = "parqo"
	variants[3].QA = 4
	variants[4].ExecWorkers = 8
	variants[5].FaultSeed = 8
	variants[6].FaultRate = 0.2
	variants[7].Lambda = 0.3
	variants[8].Epoch = 6
	seen := map[uint64]int{base.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("field variant %d collides with variant %d", i, prev)
		}
		seen[h] = i
	}
	if base.Hash() != base.Hash() {
		t.Fatal("Hash is not deterministic")
	}
}

// A wrong-key body is never served. The cache is keyed by the full
// OutcomeKey, so even two keys whose 64-bit hashes collide occupy two
// slots: a key differing from a resident one in any single field is a
// miss, and inserting it leaves the resident entry's body untouched.
func TestOutcomeCacheCollisionIsMiss(t *testing.T) {
	a := okey(1)
	c := NewOutcomeCache(1 << 12)
	real := oval("real")
	mustPut(t, c, a, real)
	impostors := []OutcomeKey{a, a, a, a, a, a, a, a, a}
	impostors[0].SigHash++
	impostors[1].Workload = "impostor"
	impostors[2].Strategy = "parqo"
	impostors[3].QA++
	impostors[4].ExecWorkers++
	impostors[5].FaultSeed++
	impostors[6].FaultRate = 0.5
	impostors[7].Lambda = 0.3
	impostors[8].Epoch++
	for i, b := range impostors {
		if _, ok := c.Get(b); ok {
			t.Fatalf("impostor %d hit the resident key's entry", i)
		}
		mustPut(t, c, b, oval("impostor"))
		if got, ok := c.Get(a); !ok || got != real {
			t.Fatalf("impostor %d displaced or overwrote the resident entry", i)
		}
		c.Evict(b)
	}
	v2 := oval("replacement")
	c.Put(a, v2)
	if got, _ := c.Get(a); got != v2 {
		t.Fatal("same-key Put must replace the value")
	}
	if c.Len() != 1 {
		t.Fatalf("replacement grew the cache to %d entries", c.Len())
	}
}

func TestEstimateOutcomeBytesMonotone(t *testing.T) {
	if EstimateOutcomeBytes(nil) != 0 {
		t.Fatal("nil estimate must be zero")
	}
	small := &CachedOutcome{Body: []byte("{}"), Outcome: &discovery.Outcome{}}
	big := &CachedOutcome{
		Body: make([]byte, 4096),
		Outcome: &discovery.Outcome{
			Steps: make([]discovery.Step, 32),
			Degradations: []discovery.Degradation{
				{Kind: "retry", Detail: "transient fault at exec 3"},
			},
		},
	}
	s, b := EstimateOutcomeBytes(small), EstimateOutcomeBytes(big)
	if s <= 0 || b <= s {
		t.Fatalf("estimates not monotone: small=%d big=%d", s, b)
	}
	bodyOnly := &CachedOutcome{Body: make([]byte, 4096)}
	if EstimateOutcomeBytes(bodyOnly) >= b {
		t.Fatal("trace bytes must count toward the estimate")
	}
}

// The doorkeeper admits a key only on its second miss: an all-miss
// stream of never-repeating keys must retain nothing.
func TestOutcomeCacheDoorkeeper(t *testing.T) {
	c := NewOutcomeCache(1 << 20)
	if _, admitted := c.Put(okey(1), oval("x")); admitted {
		t.Fatal("first offer of a new key must be rejected")
	}
	if c.Len() != 0 {
		t.Fatal("rejected offer left an entry behind")
	}
	if _, admitted := c.Put(okey(1), oval("x")); !admitted {
		t.Fatal("second offer must be admitted")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after admission, want 1", c.Len())
	}
	// A resident key is always replaced in place, no doorkeeper round.
	if _, admitted := c.Put(okey(1), oval("y")); !admitted {
		t.Fatal("replacing a resident key must be admitted")
	}
	// A pure all-unique stream never inserts.
	for i := 100; i < 600; i++ {
		if _, admitted := c.Put(okey(i), oval("z")); admitted {
			t.Fatalf("unique key %d admitted on first offer", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("all-unique stream grew the cache to %d entries", c.Len())
	}
}
