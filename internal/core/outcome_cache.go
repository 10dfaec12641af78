package core

import (
	"math"

	"repro/internal/core/discovery"
	"repro/internal/query"
)

// This file implements the serving tier's deterministic outcome cache.
// Discovery outcomes are bit-for-bit deterministic by construction:
// the same compiled artifact, strategy, grid point, worker count, and
// fault substream produce a deep-equal Outcome (pinned by the
// differential suites), so unlike an ordinary database result cache a
// semantic outcome cache here is *provably* correct — provided the key
// captures every input the execution depends on. OutcomeKey enumerates
// exactly those inputs; anything that can change the outcome must
// appear in it, and the lazy-ESS refinement epoch is the one input that
// mutates behind a stable signature.

// OutcomeKey identifies one deterministic discovery execution. Two
// requests with equal keys are guaranteed to produce deep-equal
// outcomes and byte-identical JSON responses.
type OutcomeKey struct {
	// SigHash is the workload's extended artifact signature
	// (query.Sign + Extend over EPP/res/scale) — it already pins the
	// SQL shape, grid geometry, and catalog scale.
	SigHash uint64
	// Workload is the tenant name the response echoes; two tenants can
	// share a signature (and artifact) yet serve distinct responses.
	Workload string
	// Strategy is the resolved strategy name ("spillbound", "parqo",
	// ...) — algorithm aliases resolve to it before keying.
	Strategy string
	// QA is the grid-point ordinal the discovery targets.
	QA int
	// ExecWorkers is the per-request intra-query worker count (0 =
	// server default). The merged meter is worker-count independent,
	// but exec parallelism degradations are not, so it keys.
	ExecWorkers int
	// FaultSeed and FaultRate pin the deterministic fault substream.
	// Both are zero when the request runs unarmed.
	FaultSeed uint64
	FaultRate float64
	// Lambda is the compiled artifact's cost-model λ.
	Lambda float64
	// Epoch is the workload's ESS refinement epoch at execution time.
	// Lazy-mode online refinement bumps it, invalidating every entry
	// computed against the older contour surface. Eager spaces are
	// frozen at epoch 0.
	Epoch uint64
}

// Hash folds the key into a single 64-bit cache key by extending the
// artifact signature with the request coordinates — the same FNV-1a
// construction query.Signature.Extend uses, so replicas derive
// identical hashes. The hash feeds the doorkeeper only; the cache
// itself is keyed by the full OutcomeKey.
func (k OutcomeKey) Hash() uint64 {
	return query.Signature{Hash: k.SigHash}.
		Extend(k.Workload, k.Strategy).
		ExtendUint64(
			uint64(int64(k.QA)),
			uint64(int64(k.ExecWorkers)),
			k.FaultSeed,
			math.Float64bits(k.FaultRate),
			math.Float64bits(k.Lambda),
			k.Epoch,
		).Hash
}

// CachedOutcome is one cache value: the discovery outcome for
// API-level reuse plus the exact JSON response bytes served for it, so
// a hit bypasses both the admission-slot execution and the re-encode.
// Both are immutable once cached; Body must never be mutated by
// readers (it is written to responses directly, zero-copy).
type CachedOutcome struct {
	Outcome *discovery.Outcome
	Body    []byte
}

// OutcomeCache is a byte-budgeted LRU (see lru) over deterministic
// discovery outcomes, sibling of ArtifactCache. It is keyed by the full
// OutcomeKey, so a hash collision between two keys can never serve a
// wrong-key body; values are immutable CachedOutcome entries. Inserts
// pass a doorkeeper first.
type OutcomeCache struct {
	lru[OutcomeKey, *CachedOutcome]

	// door/doorPrev form the doorkeeper: a two-generation set of
	// key hashes that have missed recently. A key is admitted into the
	// cache only on its second miss within the doorkeeper's window, so
	// a stream of never-repeating requests retains nothing — an
	// all-miss workload must not trade its own GC pressure for cache
	// entries nobody will read. Each generation holds admitGen hashes
	// (8 bytes each); when the current one fills it becomes the
	// previous and a fresh one starts, bounding memory while keeping
	// recent history. Both are guarded by the lru's mutex.
	door, doorPrev map[uint64]struct{}
}

// admitGen is the doorkeeper generation size: how many distinct missed
// keys are remembered before the window slides.
const admitGen = 1 << 14

// NewOutcomeCache creates a cache with the given byte budget. A
// non-positive budget gets a 64 MiB default — outcome entries are far
// smaller than compiled artifacts.
func NewOutcomeCache(budget int64) *OutcomeCache {
	c := &OutcomeCache{door: make(map[uint64]struct{})}
	c.init(budget, 64<<20, c.doorkeeper)
	return c
}

// Put offers the outcome under the key. A key not seen by the
// doorkeeper yet is recorded and rejected (admitted=false) — it gets
// in on its next miss. An admitted insert evicts least-recently-used
// entries until the cache is back within budget (never the entry just
// inserted); a key already resident is always replaced in place.
func (c *OutcomeCache) Put(key OutcomeKey, val *CachedOutcome) (evicted int, admitted bool) {
	return c.put(key, val, EstimateOutcomeBytes(val))
}

// doorkeeper reports whether the key's hash has missed recently (admit
// it), recording it for next time when it has not. It is the lru's
// admission hook, so it runs under the cache mutex.
func (c *OutcomeCache) doorkeeper(key OutcomeKey) bool {
	h := key.Hash()
	if _, ok := c.door[h]; ok {
		return true
	}
	if _, ok := c.doorPrev[h]; ok {
		return true
	}
	if len(c.door) >= admitGen {
		c.doorPrev = c.door
		c.door = make(map[uint64]struct{})
	}
	c.door[h] = struct{}{}
	return false
}

// EstimateOutcomeBytes approximates the resident size of a cached
// outcome for budget accounting: the response body and the step trace
// dominate. Like EstimateArtifactBytes, only consistency and
// monotonicity matter, not exactness.
func EstimateOutcomeBytes(v *CachedOutcome) int64 {
	if v == nil {
		return 0
	}
	const (
		perStep     = 72  // discovery.Step value + slice slot
		perDegr     = 64  // discovery.Degradation value sans strings
		fixedOverhd = 256 // entry struct, list element, map slot
	)
	size := int64(len(v.Body)) + fixedOverhd
	if o := v.Outcome; o != nil {
		size += int64(len(o.Steps)) * perStep
		size += int64(len(o.Degradations)) * perDegr
		for _, d := range o.Degradations {
			size += int64(len(d.Kind) + len(d.Detail))
		}
	}
	return size
}
