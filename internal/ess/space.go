package ess

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
)

const (
	// DefaultTheta is the recost acceptance threshold θ used when
	// Config.Theta is left zero.
	DefaultTheta = 0.05
	// DefaultCoarseStep is the phase-1 sub-lattice stride used when
	// Config.CoarseStep is left zero. At stride 2 every off-lattice point
	// is one grid step from solved corners on each dimension, which keeps
	// the recost candidates tight on the geometric grid.
	DefaultCoarseStep = 2
	// ThetaExact (any Theta ≤ 0) disables recost acceptance entirely, so
	// every grid point is settled by the exact DP — the classic
	// one-DP-per-point sweep, guaranteed to reproduce the exact surface.
	ThetaExact = -1
)

// Config controls ESS construction.
type Config struct {
	// Res is the grid resolution per dimension.
	Res int
	// SelMin is the smallest selectivity on the grid (default 1e-4).
	SelMin float64
	// CostRatio is the geometric spacing of iso-cost contours (default
	// 2.0, the doubling of the paper; §4.2 notes 1.8 can shave the bound).
	CostRatio float64
	// Workers bounds the parallelism of the POSP sweep (default NumCPU).
	Workers int
	// Theta is the recost acceptance threshold: an off-lattice point is
	// settled without the DP only when the best pooled recost beats the
	// runner-up by a factor ≥ 1+Theta (and the surrounding lattice
	// corners agree on the winner). Zero means DefaultTheta; negative
	// (ThetaExact) disables recost acceptance, forcing the exact sweep.
	Theta float64
	// CoarseStep is the phase-1 sub-lattice stride k: the exact DP runs
	// on every k-th grid index per dimension (corners always included).
	// Zero means DefaultCoarseStep; values ≤ 1 force the exact sweep.
	CoarseStep int
}

// exact reports whether the configuration asks for the exact sweep:
// ThetaExact, or a coarse lattice of stride ≤ 1. It reads a config with
// its defaults applied, where Theta 0 already means DefaultTheta.
func (c Config) exact() bool { return c.Theta <= 0 || c.CoarseStep <= 1 }

func (c Config) withDefaults() Config {
	if c.SelMin == 0 {
		c.SelMin = 1e-4
	}
	if c.CostRatio == 0 {
		c.CostRatio = 2.0
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Theta == 0 {
		c.Theta = DefaultTheta
	}
	if c.CoarseStep == 0 {
		c.CoarseStep = DefaultCoarseStep
	}
	return c
}

// PlanInfo is one POSP plan in the pool.
type PlanInfo struct {
	// ID is the plan's index in the pool.
	ID int
	// Root is the plan tree.
	Root *plan.Node
	// Sig is the canonical signature.
	Sig string

	// spill[remMask] is the ESS dimension the plan spills on given the
	// bitmask of still-unlearned dimensions (-1 = none). Precomputed when
	// the plan enters the pool so SpillDim is a lock-free table read.
	spill []int8
}

// Space is the constructed search space: the tuples <q, Pq, Cost(Pq,q)>
// of §2.2 for every grid location, the plan pool, and the contours.
//
// After Build returns the space is immutable apart from two
// concurrency-safe extension points: AddPlan interns runtime plans into
// a copy-on-write pool, and ContourAt memoizes slice contours. Every
// read path (Plans, Plan, SpillDim, ContourAt, Evaluator) is
// lock-free, so any number of discovery runs can share one Space.
type Space struct {
	// Q is the underlying query.
	Q *query.Query
	// Grid is the ESS discretization.
	Grid *Grid
	// Model is the cost model shared with the optimizer.
	Model *cost.Model
	// BaseEnv is the costing environment with non-epp quantities fixed.
	BaseEnv *cost.Env
	// PointPlan maps each grid point to its optimal plan's ID.
	PointPlan []int32
	// PointCost maps each grid point to its optimal cost.
	PointCost []float64
	// Cmin and Cmax are the optimal costs at origin and terminus.
	Cmin, Cmax float64
	// CostRatio is the contour spacing used.
	CostRatio float64
	// Stats reports the work profile of the sweep that built the space.
	Stats SweepStats

	opt *optimizer.Optimizer

	// The plan pool is copy-on-write: readers load the current immutable
	// snapshot without locking; writers append under planMu and publish a
	// new slice. basePlans is the pool size when Build (or Load)
	// published it — the frozen compile-time prefix; entries past it were
	// interned at run time.
	plans     atomic.Pointer[[]*PlanInfo]
	planMu    sync.Mutex
	planSig   map[string]int32
	basePlans int

	// contours enumerates and memoizes the iso-cost contours of every
	// slice over the immutable PointCost surface.
	contours *contourMemo

	// loaded marks spaces reconstructed from a snapshot (Profile mode).
	loaded bool
}

// newSkeleton is the empty space every constructor starts from — Build,
// BuildLazy and the snapshot loader: the query bound to its grid, model
// and environment, an optimizer, and an empty copy-on-write plan pool.
// The caller supplies the point arrays.
func newSkeleton(q *query.Query, baseEnv *cost.Env, model *cost.Model, g *Grid, ratio float64) *Space {
	s := &Space{
		Q:         q,
		Grid:      g,
		Model:     model,
		BaseEnv:   baseEnv,
		CostRatio: ratio,
		opt:       optimizer.New(q, model),
		planSig:   make(map[string]int32),
	}
	empty := make([]*PlanInfo, 0)
	s.plans.Store(&empty)
	return s
}

// Build optimizes every grid location and assembles the space.
func Build(q *query.Query, baseEnv *cost.Env, model *cost.Model, cfg Config) (*Space, error) {
	cfg = cfg.withDefaults()
	if q.D() < 1 {
		return nil, fmt.Errorf("ess: query %s has no epps", q.Name)
	}
	g := NewGrid(q.D(), cfg.Res, cfg.SelMin)
	s := newSkeleton(q, baseEnv, model, g, cfg.CostRatio)
	s.PointPlan = make([]int32, g.NumPoints())
	s.PointCost = make([]float64, g.NumPoints())
	if err := s.sweep(cfg); err != nil {
		return nil, err
	}
	if err := s.memoContours(); err != nil {
		return nil, err
	}
	return s, nil
}

// memoContours sets the bounds and starts the contour memo over the
// space's settled PointCost surface.
func (s *Space) memoContours() error {
	costs, err := s.ladder()
	if err != nil {
		return err
	}
	s.contours = newContourMemo(s.Grid, costs, func(pt int) float64 { return s.PointCost[pt] })
	return nil
}

// Plans returns the current plan-pool snapshot. The returned slice is
// never mutated — runtime interning publishes a new snapshot instead of
// growing this one — so it is safe to iterate without locking.
func (s *Space) Plans() []*PlanInfo { return *s.plans.Load() }

// Plan returns the pool entry with the given ID.
func (s *Space) Plan(id int32) *PlanInfo { return (*s.plans.Load())[id] }

// NumPlans returns the current pool size.
func (s *Space) NumPlans() int { return len(*s.plans.Load()) }

// BasePlans returns the compile-time plan pool: the pool exactly as
// Build (or Load) published it, excluding plans interned at run time.
// The prefix is frozen, so concurrent callers that must agree on a
// candidate set (e.g. alignment planners) all see the same plans
// regardless of what other runs have interned since.
func (s *Space) BasePlans() []*PlanInfo { return (*s.plans.Load())[:s.basePlans] }

// publishPlans installs the built pool: it precomputes each plan's
// spill table, indexes signatures for AddPlan interning, and freezes
// the compile-time prefix.
func (s *Space) publishPlans(plans []*PlanInfo) {
	for _, p := range plans {
		if p.spill == nil {
			p.spill = s.spillTable(p.Root)
		}
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	s.planSig = make(map[string]int32, len(plans))
	for _, p := range plans {
		s.planSig[p.Sig] = int32(p.ID)
	}
	s.basePlans = len(plans)
	snapshot := plans
	s.plans.Store(&snapshot)
}

// ContourCosts returns the budget sequence CC_1..CC_m: Cmin, then
// geometric steps, capped at Cmax (§2.5).
func (s *Space) ContourCosts() []float64 { return slices.Clone(s.contours.costs) }

// AppendSliceKey appends the cache key of a learned-dimension vector to
// b: one varint per dimension. Varint encoding is self-delimiting, so
// high grid indexes cannot collide the way single-byte encodings do
// (byte(v+1) maps 255 and -1 to the same key), and further varints may
// follow the key unambiguously.
func AppendSliceKey(b []byte, learned []int) []byte {
	for _, v := range learned {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// spillTable computes, for every bitmask of still-unlearned dimensions,
// the ESS dimension the plan spills on (-1 = none). Spill-node
// identification is structural, not location-dependent, so the table
// depends only on the plan tree.
func (s *Space) spillTable(root *plan.Node) []int8 {
	d := s.Grid.D
	tab := make([]int8, 1<<uint(d))
	remaining := make(map[int]bool, d)
	for mask := range tab {
		for k := range remaining {
			delete(remaining, k)
		}
		for dim, joinID := range s.Q.EPPs {
			if mask&(1<<uint(dim)) != 0 {
				remaining[joinID] = true
			}
		}
		dim := -1
		if joinID := plan.SpillJoin(root, remaining); joinID >= 0 {
			dim = s.Q.EPPDim(joinID)
		}
		tab[mask] = int8(dim)
	}
	return tab
}

// SpillDim returns the ESS dimension the plan spills on given the set of
// still-unlearned dimensions (bitmask over dims), or -1. The table is
// precomputed when the plan enters the pool, so this is a lock-free
// read.
func (s *Space) SpillDim(planID int32, remMask uint16) int {
	p := s.Plan(planID)
	return int(p.spill[int(remMask)&(len(p.spill)-1)])
}

// AddPlan interns an externally produced plan (e.g. an AlignedBound
// replacement from the per-spill-class optimizer search) into the pool
// and returns its ID. Interning is keyed by canonical signature, so the
// same plan receives the same ID no matter which run interns it first —
// concurrent discoveries stay comparable step-for-step.
func (s *Space) AddPlan(root *plan.Node) int32 {
	sig := root.Signature()
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if id, ok := s.planSig[sig]; ok {
		return id
	}
	cur := *s.plans.Load()
	id := int32(len(cur))
	next := make([]*PlanInfo, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = &PlanInfo{ID: int(id), Root: root, Sig: sig, spill: s.spillTable(root)}
	s.plans.Store(&next)
	s.planSig[sig] = id
	return id
}

// Optimizer exposes the space's optimizer (shared cost model and query).
func (s *Space) Optimizer() *optimizer.Optimizer { return s.opt }

// Evaluator provides recosting of arbitrary pool plans at arbitrary grid
// locations. Each evaluator owns scratch state; use one per goroutine.
type Evaluator struct {
	s   *Space
	env *cost.Env
	sel []float64
	// optCost, when set, routes OptCost through a demand-driven source
	// (a lazy space settles the point on first touch); nil reads the
	// eager PointCost array directly.
	optCost func(pt int32) float64
}

// NewEvaluator returns a fresh evaluator over the space.
func (s *Space) NewEvaluator() *Evaluator {
	return &Evaluator{s: s, env: s.BaseEnv.Clone(), sel: make([]float64, s.Grid.D)}
}

// Env positions the evaluator's costing environment at the grid point
// and returns it.
func (e *Evaluator) Env(pt int32) *cost.Env {
	e.s.Grid.Sel(int(pt), e.sel)
	optimizer.SetEPPSel(e.env, e.s.Q, e.sel)
	return e.env
}

// PlanCost recosts pool plan planID at the grid point.
func (e *Evaluator) PlanCost(planID, pt int32) float64 {
	return e.s.Model.Cost(e.s.Plan(planID).Root, e.Env(pt)).Cost
}

// SpillCost costs the spill-mode execution of the plan on the given ESS
// dimension at the grid point (the subtree rooted at the epp's join
// node, §3.1.2).
func (e *Evaluator) SpillCost(planID, pt int32, dim int) float64 {
	joinID := e.s.Q.EPPs[dim]
	res, ok := e.s.Model.SpillCost(e.s.Plan(planID).Root, joinID, e.Env(pt))
	if !ok {
		return math.Inf(1)
	}
	return res.Cost
}

// OptCost returns the optimal cost at the grid point, settling it first
// when the evaluator belongs to a lazy source.
func (e *Evaluator) OptCost(pt int32) float64 {
	if e.optCost != nil {
		return e.optCost(pt)
	}
	return e.s.PointCost[pt]
}

// MaxSelIndexWithin returns the largest grid index k along dim such
// that the spill-mode cost of the plan — with dim's selectivity set to
// Vals[k] and all other dimensions taken from the point pt — stays
// within budget. Returns -1 if even index 0 exceeds the budget. This is
// the selectivity the engine is guaranteed to have scanned past when a
// budget-limited spill execution is killed (Lemma 3.1).
func (e *Evaluator) MaxSelIndexWithin(planID, pt int32, dim int, budget float64) int {
	g := e.s.Grid
	base := int(pt) - g.Coord(int(pt), dim)*g.strides[dim]
	// Spill cost is monotone in the dimension: binary search the
	// crossing.
	lo, hi := 0, g.Res-1
	if e.spillAt(planID, base, dim, 0) > budget {
		return -1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if e.spillAt(planID, base, dim, mid) <= budget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (e *Evaluator) spillAt(planID int32, base, dim, k int) float64 {
	return e.SpillCost(planID, int32(base+k*e.s.Grid.strides[dim]), dim)
}
