package core

import "testing"

// Cache behavior is independent of artifact contents; distinct empty
// Compiled values stand in for real artifacts (identity is what the
// cache hands out, and pointer identity is what the tests check), with
// the id they were put under parked in Lambda.
func artifactFace(budget int64) lruFace {
	c := NewArtifactCache(budget)
	return lruFace{
		get:  func(id int) (any, bool) { return c.Get(uint64(id)) },
		peek: func(id int) (any, bool) { return c.Peek(uint64(id)) },
		put: func(id int, size int64) (any, int) {
			a := &Compiled{Lambda: float64(id)}
			return a, c.Put(uint64(id), a, size)
		},
		idOf:  func(v any) int { return int(v.(*Compiled).Lambda) },
		evict: func(id int) bool { return c.Evict(uint64(id)) },
		len:   c.Len,
		stats: c.Stats,
	}
}

func TestArtifactCacheHitMissEvict(t *testing.T)         { lruHitMissEvictOrder(t, artifactFace) }
func TestArtifactCacheKeepsNewestOversized(t *testing.T) { lruNewestSurvivesOversized(t, artifactFace) }
func TestArtifactCacheReplaceAndEvict(t *testing.T)      { lruReplaceInPlaceAndEvict(t, artifactFace) }
func TestArtifactCachePeekIsNeutral(t *testing.T)        { lruPeekIsNeutral(t, artifactFace) }
func TestArtifactCacheConcurrent(t *testing.T)           { lruConcurrent(t, artifactFace) }
