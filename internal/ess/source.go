package ess

import (
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
)

// ContourSource is the demand-driven contour provider the discovery
// algorithms consume. Two implementations exist: the eagerly built
// *Space (the full res^D POSP sweep, kept bit-for-bit for θ=0
// validation and the differential suites) and *LazySpace, which
// materializes iso-cost contours one budget step at a time as the
// algorithms climb the ladder and settles grid points only when a
// contour, a simulated execution, or a planner decision touches them.
//
// All methods are safe for concurrent use. Point accessors (CostAt,
// PlanAt) may settle the point on first touch in a lazy source; the
// returned values for a given epoch are stable, and Epoch() changes
// exactly when online refinement publishes a new overlay.
type ContourSource interface {
	// Query returns the underlying query.
	Query() *query.Query
	// Geometry returns the ESS grid discretization.
	Geometry() *Grid
	// Bounds returns (Cmin, Cmax): the optimal costs at the grid origin
	// and terminus.
	Bounds() (cmin, cmax float64)
	// Ratio returns the geometric iso-cost contour spacing.
	Ratio() float64
	// ContourCosts returns the budget sequence CC_1..CC_m.
	ContourCosts() []float64
	// NumContours returns m, the number of iso-cost contours.
	NumContours() int
	// ContourAt returns contour ci (0-based) of the slice where the
	// learned dimensions (learned[d] ≥ 0) are pinned to their grid
	// indexes; nil learned selects the full grid. The returned contour
	// is immutable.
	ContourAt(learned []int, ci int) *Contour
	// CostAt returns the optimal cost at the grid point.
	CostAt(pt int32) float64
	// PlanAt returns the optimal plan's pool ID at the grid point.
	PlanAt(pt int32) int32
	// Plan returns the pool entry with the given ID.
	Plan(id int32) *PlanInfo
	// NumPlans returns the current pool size.
	NumPlans() int
	// BasePlans returns the frozen compile-time candidate pool (for a
	// lazy source: the pool snapshot at call time — see LazySpace docs).
	BasePlans() []*PlanInfo
	// AddPlan interns an externally produced plan into the pool.
	AddPlan(root *plan.Node) int32
	// SpillDim returns the ESS dimension the plan spills on given the
	// bitmask of still-unlearned dimensions, or -1.
	SpillDim(planID int32, remMask uint16) int
	// NewEvaluator returns a fresh recosting evaluator whose OptCost
	// routes through this source (settling lazily where applicable).
	NewEvaluator() *Evaluator
	// Optimizer exposes the source's optimizer.
	Optimizer() *optimizer.Optimizer
	// Epoch returns the refinement epoch: 0 for immutable sources,
	// incremented each time online refinement publishes a new overlay.
	Epoch() uint64
	// Profile reports the provider-agnostic construction work profile.
	Profile() BuildProfile
}

// BuildProfile is the provider-agnostic construction work profile of a
// ContourSource: how many grid points have a settled cost, how they
// were settled (exact DP vs. recost), and — for lazy sources — the
// demand-driven cache and refinement activity. It replaces direct reads
// of Space.Stats in tooling, which reported misleading zeros for lazy
// paths.
type BuildProfile struct {
	// Mode identifies the provider: "eager-exact", "eager-recost",
	// "snapshot", "lazy-exact", or "lazy-recost".
	Mode string
	// Points is the total number of grid locations.
	Points int
	// Settled is the number of locations with a materialized cost
	// (equals Points for eager sources).
	Settled int
	// LatticeDP is the number of phase-1 coarse-lattice DP points (eager
	// recost sweeps only).
	LatticeDP int
	// DPCalls counts exact optimizer invocations.
	DPCalls int64
	// RecostPoints is the number of points settled by recosting pooled
	// plans instead of running the DP.
	RecostPoints int64
	// RecostCalls counts individual plan recostings.
	RecostCalls int64
	// Fallbacks counts recost points whose anchor gate failed, forcing
	// the exact DP.
	Fallbacks int64
	// Repairs and RepairRounds report the eager sweep's monotonicity
	// repair pass (eager recost only).
	Repairs, RepairRounds int
	// ContoursBuilt counts contours materialized on demand and stored in
	// the contour memo: one per contour of an epoch, however lookups race
	// (lazy only).
	ContoursBuilt int64
	// ContourHits counts ContourAt lookups served from the contour memo,
	// ContourMisses those that found nothing there and built a contour;
	// ContourMisses − ContoursBuilt are builds lost to a racing lookup
	// (lazy only).
	ContourHits, ContourMisses int64
	// Hits and Misses count settled-point cache hits and misses on the
	// point accessors (lazy only).
	Hits, Misses int64
	// Refinements counts applied refinement rounds and RefinedPoints the
	// points whose value an exact re-solve actually changed (lazy only).
	Refinements, RefinedPoints int64
	// DeltaAppends counts refinement deltas durably appended to the
	// snapshot file, DeltaPoints the point values they carried and
	// DeltaBytes their framed size (lazy only).
	DeltaAppends, DeltaPoints, DeltaBytes int64
	// Epoch is the current refinement epoch (lazy only).
	Epoch uint64
}

// FallbackRate is the fraction of recost-eligible points that fell back
// to the exact DP.
func (p BuildProfile) FallbackRate() float64 {
	eligible := p.RecostPoints + p.Fallbacks
	if eligible <= 0 {
		return 0
	}
	return float64(p.Fallbacks) / float64(eligible)
}

// DPReduction is the factor by which exact DP invocations dropped
// relative to one DP per settled point.
func (p BuildProfile) DPReduction() float64 {
	if p.DPCalls == 0 {
		return 1
	}
	return float64(p.Settled) / float64(p.DPCalls)
}

// --- Space conformance -------------------------------------------------

// Query returns the underlying query.
func (s *Space) Query() *query.Query { return s.Q }

// Geometry returns the ESS grid.
func (s *Space) Geometry() *Grid { return s.Grid }

// Bounds returns (Cmin, Cmax).
func (s *Space) Bounds() (float64, float64) { return s.Cmin, s.Cmax }

// Ratio returns the contour spacing.
func (s *Space) Ratio() float64 { return s.CostRatio }

// NumContours returns the number of iso-cost contours.
func (s *Space) NumContours() int { return len(s.contours.costs) }

// ContourAt returns contour ci of the slice pinned by learned (nil =
// full grid), memoized for the space's lifetime, so callers must not
// mutate it.
func (s *Space) ContourAt(learned []int, ci int) *Contour {
	ct, _, _ := s.contours.at(learned, ci)
	return ct
}

// CostAt returns the optimal cost at the grid point.
func (s *Space) CostAt(pt int32) float64 { return s.PointCost[pt] }

// PlanAt returns the optimal plan ID at the grid point.
func (s *Space) PlanAt(pt int32) int32 { return s.PointPlan[pt] }

// Epoch returns 0: an eager space never refines after Build.
func (s *Space) Epoch() uint64 { return 0 }

// Profile reports the eager sweep's work profile in provider-agnostic
// form.
func (s *Space) Profile() BuildProfile {
	mode := "eager-exact"
	switch {
	case s.loaded:
		mode = "snapshot"
	case s.Stats.LatticeDP > 0:
		mode = "eager-recost"
	}
	return BuildProfile{
		Mode:         mode,
		Points:       s.Grid.NumPoints(),
		Settled:      s.Grid.NumPoints(),
		LatticeDP:    s.Stats.LatticeDP,
		DPCalls:      int64(s.Stats.DPCalls),
		RecostPoints: int64(s.Stats.RecostPoints),
		RecostCalls:  s.Stats.RecostCalls,
		Fallbacks:    int64(s.Stats.Fallbacks),
		Repairs:      s.Stats.Repairs,
		RepairRounds: s.Stats.RepairRounds,
	}
}

var _ ContourSource = (*Space)(nil)
