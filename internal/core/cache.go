package core

// ArtifactCache is a signature-keyed LRU cache of Compiled artifacts
// with a byte-size budget (see lru) — the serving tier's defense against
// paying one compile per process per workload. Keys are query-signature
// hashes (see query.Sign/Extend), values are immutable *Compiled
// artifacts safe to share across any number of concurrent runs, so a
// hit hands the caller the same pointer every other tenant of that
// signature is using.
type ArtifactCache struct {
	lru[uint64, *Compiled]
}

// NewArtifactCache creates a cache with the given byte budget. A
// non-positive budget gets a 256 MiB default.
func NewArtifactCache(budget int64) *ArtifactCache {
	c := &ArtifactCache{}
	c.init(budget, 256<<20, nil)
	return c
}

// Put inserts (or replaces) the artifact under the signature key with
// the given size estimate and returns the number of entries the byte
// budget evicted to make room.
func (c *ArtifactCache) Put(key uint64, art *Compiled, size int64) int {
	evicted, _ := c.put(key, art, size)
	return evicted
}

// EstimateArtifactBytes approximates the resident size of a compiled
// artifact for cache accounting: the per-point plan/cost arrays
// dominate, plus a conservative per-plan allowance for the plan trees
// and planner state. Exactness does not matter — the budget only needs
// a consistent, monotone measure so eviction pressure tracks reality.
func EstimateArtifactBytes(c *Compiled) int64 {
	if c == nil {
		return 0
	}
	g := c.Source.Geometry()
	points := int64(g.NumPoints())
	plans := int64(c.Source.NumPlans())
	const (
		perPoint    = 12  // int32 plan id + float64 cost
		perPlan     = 512 // plan tree + pool bookkeeping
		fixedOverhd = 1 << 14
	)
	return points*perPoint + plans*perPlan + fixedOverhd
}
