package ess

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
)

// LazySpace is the demand-driven ContourSource: instead of sweeping the
// full res^D grid up front, it settles grid points only when a contour
// enumeration, a simulated execution, or a planner decision touches
// them. Iso-cost contours are materialized one budget step at a time as
// the discovery algorithms climb the ladder, walking the cost surface's
// monotone structure (per-line binary search with subtree pruning) so
// the work tracks the contour's surface area, not the grid volume.
//
// Points are settled recost-first from the coarse lattice — the exact
// DP runs at the 2^D surrounding lattice corners and the off-lattice
// point is covered by recosting the corners' plans under PR 2's
// log-interpolated anchor gate — or exactly when the gate fails or the
// configuration demands it (ThetaExact, or CoarseStep ≤ 1). Unlike the
// eager sweep there are no global relaxation/repair phases, so
// eager-vs-lazy bit equality is only guaranteed in exact mode; in
// recost mode each contour point's membership is verified directly
// against its grid successors, so slight monotonicity slips cannot
// produce an invalid contour.
//
// Concurrency: the settled-flag array uses a release-store protocol
// (the cost/plan are written under a striped mutex before the flag is
// published), so readers that observe the flag see the values without
// locking. Settled values are immutable; online refinement never
// rewrites them in place but publishes a copy-on-write overlay behind
// an atomic pointer, bumping the epoch and invalidating the contour
// memos.
type LazySpace struct {
	inner *Space
	cfg   Config

	exactMode bool
	theta     float64

	lat *lattice
	// cellLo/cellHi give, per grid coordinate, the lattice indexes of
	// the owning coarse interval ([idx[i], idx[i+1]), top closed) — the
	// corner anchors used when settling the coordinate by recost.
	cellLo, cellHi []int

	// costs is the fixed budget sequence CC_1..CC_m (Cmin and Cmax are
	// settled exactly at construction and never refined); budgets adds
	// the eager extractor's epsilon slack.
	costs   []float64
	budgets []float64

	flags []atomic.Uint32
	locks []sync.Mutex

	workers sync.Pool

	// state is the refinement overlay: an immutable refined-value map
	// plus the contour memo for the current epoch. Refinement publishes
	// a fresh state; in-flight readers keep a coherent snapshot.
	state atomic.Pointer[lazyState]

	refMu   sync.Mutex
	pending map[[2]int]struct{}

	// journal names the points that changed since DeltaSince last ran and
	// the points refinement may still target.
	journal changeJournal

	// cells memoizes per-cell anchor data (corner indexes, their exact
	// log costs and plans), keyed by the cell's all-lo corner. A cell is
	// shared by every off-lattice point inside it, so the corner DP
	// resolution, the log transforms, and the candidate plan list are
	// paid once per demanded cell instead of once per settled point.
	cells sync.Map

	stats lazyStats
}

// changeJournal records which points changed, so the two per-request
// consumers pay for what changed instead of scanning res^D flags.
//
// changed is the log DeltaSince drains: a point id is appended after the
// point settles and again after refinement upgrades it to exact grade —
// at most two entries per point, each appended after the value it
// announces is published (see ApplyRefinements for the order). Logging
// starts when DeltaSince is first called (primed); before that its full
// scan covers everything, so a space nobody persists logs nothing.
//
// recost holds the ids of points settled at recost grade, the only
// refinement targets. ApplyRefinements scans it in place of the grid
// and drops the entries refinement has since upgraded.
type changeJournal struct {
	mu      sync.Mutex
	logging atomic.Bool
	changed []int32
	recost  []int32
}

// settled journals a point whose settled value was just published.
func (j *changeJournal) settled(pt int32, exact bool) {
	logging := j.logging.Load()
	if exact && !logging {
		return
	}
	j.mu.Lock()
	if logging {
		j.changed = append(j.changed, pt)
	}
	if !exact {
		j.recost = append(j.recost, pt)
	}
	j.mu.Unlock()
}

// upgraded journals points refinement just raised to exact grade.
func (j *changeJournal) upgraded(pts []int32) {
	if !j.logging.Load() {
		return
	}
	j.mu.Lock()
	j.changed = append(j.changed, pts...)
	j.mu.Unlock()
}

// prime starts (or restarts) the change log empty. A settle that does
// not see logging on published its flag before the caller's full scan
// reads it, so no point falls between the scan and the log.
func (j *changeJournal) prime() {
	j.mu.Lock()
	j.logging.Store(true)
	j.changed = nil
	j.mu.Unlock()
}

// drain hands the change log to the caller and starts a fresh one.
func (j *changeJournal) drain() []int32 {
	j.mu.Lock()
	pts := j.changed
	j.changed = nil
	j.mu.Unlock()
	return pts
}

// cellInfo is the immutable per-cell anchor block: the 2^D lattice
// corners of the cell, their exactly solved costs in log space, and
// their optimal plans (the recost candidate set).
type cellInfo struct {
	corners []int32
	logc    []float64
	plans   []int32
}

const (
	flagSolved uint32 = 1 << iota
	flagExact
	flagRefined
)

const lazyLockShards = 256

// lazyState is one refinement epoch: the copy-on-write overlay of
// exactly re-solved point values and the contour memo keyed by
// (slice, contour). Both are immutable once published (the sync.Map
// only ever gains entries that are pure functions of the epoch).
type lazyState struct {
	refined  map[int32]refinedVal
	contours sync.Map
	epoch    uint64
}

type refinedVal struct {
	cost float64
	plan int32
}

type lazyStats struct {
	settled       atomic.Int64
	dpCalls       atomic.Int64
	recostPoints  atomic.Int64
	recostCalls   atomic.Int64
	fallbacks     atomic.Int64
	hits          atomic.Int64
	misses        atomic.Int64
	contoursBuilt atomic.Int64
	refinements   atomic.Int64
	refinedPoints atomic.Int64
	deltaAppends  atomic.Int64
	deltaPoints   atomic.Int64
	deltaBytes    atomic.Int64
}

// lazyWorker is per-goroutine settle scratch, pooled across callers.
type lazyWorker struct {
	runner *optimizer.Runner
	env    *cost.Env
	sel    []float64
	coords []int
	wt     []float64
	fold   []float64
	tried  []int32
}

// lazyDefaultTheta is the lazy-mode recost gate width. The eager sweep
// wants a dense anchor lattice and a tight gate because every lattice
// DP is amortized over the full grid; in the lazy regime each lattice
// DP is pure cost (only demanded cells ever use their anchors), so the
// lattice coarsens with resolution and the gate widens to match the
// wider cells. Explicit Config values always win.
const lazyDefaultTheta = 0.65

// lazyDefaults applies the lazy-mode defaults above to unset fields.
func lazyDefaults(cfg Config) Config {
	if cfg.CoarseStep == 0 && cfg.Res > 2*DefaultCoarseStep {
		cfg.CoarseStep = max(DefaultCoarseStep, cfg.Res/2)
	}
	if cfg.Theta == 0 {
		cfg.Theta = lazyDefaultTheta
	}
	return cfg
}

// BuildLazy constructs a lazy search space over the query: only the
// grid origin and terminus are solved (exactly) at construction, fixing
// the contour ladder; everything else settles on demand.
func BuildLazy(q *query.Query, baseEnv *cost.Env, model *cost.Model, cfg Config) (*LazySpace, error) {
	cfg = lazyDefaults(cfg).withDefaults()
	if q.D() < 1 {
		return nil, fmt.Errorf("ess: query %s has no epps", q.Name)
	}
	g := NewGrid(q.D(), cfg.Res, cfg.SelMin)
	s := newSkeleton(q, baseEnv, model, g, cfg.CostRatio)
	s.PointPlan = make([]int32, g.NumPoints())
	s.PointCost = make([]float64, g.NumPoints())

	ls := &LazySpace{
		inner:     s,
		cfg:       cfg,
		exactMode: cfg.exact(),
		theta:     cfg.Theta,
		lat:       newLattice(cfg.Res, max(cfg.CoarseStep, 2)),
		flags:     make([]atomic.Uint32, g.NumPoints()),
		locks:     make([]sync.Mutex, lazyLockShards),
		pending:   make(map[[2]int]struct{}),
	}
	ls.cellLo = make([]int, cfg.Res)
	ls.cellHi = make([]int, cfg.Res)
	for i := 0; i < len(ls.lat.idx)-1; i++ {
		lo, hi := ls.lat.idx[i], ls.lat.idx[i+1]
		for c := lo; c < hi; c++ {
			ls.cellLo[c], ls.cellHi[c] = lo, hi
		}
	}
	ls.cellLo[cfg.Res-1] = ls.lat.idx[len(ls.lat.idx)-2]
	ls.cellHi[cfg.Res-1] = cfg.Res - 1
	ls.workers.New = func() any {
		return &lazyWorker{
			runner: s.opt.NewRunner(),
			env:    s.BaseEnv.Clone(),
			sel:    make([]float64, g.D),
			coords: make([]int, g.D),
			wt:     make([]float64, g.D),
			fold:   make([]float64, 1<<uint(g.D)),
			tried:  make([]int32, 0, 8),
		}
	}
	ls.state.Store(&lazyState{refined: map[int32]refinedVal{}})

	if err := ls.solveExact(int32(g.Origin())); err != nil {
		return nil, err
	}
	if err := ls.solveExact(int32(g.Terminus())); err != nil {
		return nil, err
	}
	s.Cmin = s.PointCost[g.Origin()]
	s.Cmax = s.PointCost[g.Terminus()]
	if s.Cmin <= 0 || s.Cmax < s.Cmin {
		return nil, fmt.Errorf("ess: degenerate cost surface (Cmin=%v, Cmax=%v)", s.Cmin, s.Cmax)
	}
	ls.costs = s.ContourCosts()
	ls.budgets = make([]float64, len(ls.costs))
	for i, cc := range ls.costs {
		ls.budgets[i] = cc * (1 + 1e-9)
	}
	return ls, nil
}

// --- ContourSource conformance ----------------------------------------

// Query returns the underlying query.
func (ls *LazySpace) Query() *query.Query { return ls.inner.Q }

// Geometry returns the ESS grid.
func (ls *LazySpace) Geometry() *Grid { return ls.inner.Grid }

// Bounds returns (Cmin, Cmax).
func (ls *LazySpace) Bounds() (float64, float64) { return ls.inner.Cmin, ls.inner.Cmax }

// Ratio returns the contour spacing.
func (ls *LazySpace) Ratio() float64 { return ls.inner.CostRatio }

// ContourCosts returns the budget sequence CC_1..CC_m.
func (ls *LazySpace) ContourCosts() []float64 {
	return append([]float64(nil), ls.costs...)
}

// NumContours returns the number of iso-cost contours.
func (ls *LazySpace) NumContours() int { return len(ls.costs) }

// Plan returns the pool entry with the given ID.
func (ls *LazySpace) Plan(id int32) *PlanInfo { return ls.inner.Plan(id) }

// NumPlans returns the current pool size.
func (ls *LazySpace) NumPlans() int { return ls.inner.NumPlans() }

// BasePlans returns the current pool snapshot. A lazy source has no
// frozen compile-time pool — the pool grows as points settle — so
// callers get the plans discovered so far; heuristics scoring this set
// are deterministic per epoch only.
func (ls *LazySpace) BasePlans() []*PlanInfo { return ls.inner.Plans() }

// AddPlan interns an externally produced plan into the shared pool.
func (ls *LazySpace) AddPlan(root *plan.Node) int32 { return ls.inner.AddPlan(root) }

// SpillDim returns the spill dimension of the plan under the mask.
func (ls *LazySpace) SpillDim(planID int32, remMask uint16) int {
	return ls.inner.SpillDim(planID, remMask)
}

// Optimizer exposes the shared optimizer.
func (ls *LazySpace) Optimizer() *optimizer.Optimizer { return ls.inner.opt }

// NewEvaluator returns an evaluator whose OptCost settles lazily.
func (ls *LazySpace) NewEvaluator() *Evaluator {
	ev := ls.inner.NewEvaluator()
	ev.optCost = ls.CostAt
	return ev
}

// Epoch returns the refinement epoch.
func (ls *LazySpace) Epoch() uint64 { return ls.state.Load().epoch }

// CostAt returns the optimal cost at the grid point, settling it on
// first touch. Refined points read from the current overlay.
func (ls *LazySpace) CostAt(pt int32) float64 {
	if st := ls.state.Load(); len(st.refined) > 0 {
		if r, ok := st.refined[pt]; ok {
			return r.cost
		}
	}
	ls.ensure(pt)
	return ls.inner.PointCost[pt]
}

// PlanAt returns the optimal plan ID at the grid point, settling it on
// first touch.
func (ls *LazySpace) PlanAt(pt int32) int32 {
	if st := ls.state.Load(); len(st.refined) > 0 {
		if r, ok := st.refined[pt]; ok {
			return r.plan
		}
	}
	ls.ensure(pt)
	return ls.inner.PointPlan[pt]
}

// ContourAt materializes (and memoizes, per epoch) contour ci of the
// slice pinned by learned.
func (ls *LazySpace) ContourAt(learned []int, ci int) *Contour {
	st := ls.state.Load()
	key := ls.contourKey(learned, ci)
	if v, ok := st.contours.Load(key); ok {
		ls.stats.hits.Add(1)
		return v.(*Contour)
	}
	ls.stats.misses.Add(1)
	ct := ls.buildContour(st, learned, ci)
	ls.stats.contoursBuilt.Add(1)
	actual, _ := st.contours.LoadOrStore(key, ct)
	return actual.(*Contour)
}

// Profile reports the demand-driven work profile.
func (ls *LazySpace) Profile() BuildProfile {
	mode := "lazy-recost"
	if ls.exactMode {
		mode = "lazy-exact"
	}
	return BuildProfile{
		Mode:          mode,
		Points:        ls.inner.Grid.NumPoints(),
		Settled:       int(ls.stats.settled.Load()),
		DPCalls:       ls.stats.dpCalls.Load(),
		RecostPoints:  ls.stats.recostPoints.Load(),
		RecostCalls:   ls.stats.recostCalls.Load(),
		Fallbacks:     ls.stats.fallbacks.Load(),
		ContoursBuilt: ls.stats.contoursBuilt.Load(),
		Hits:          ls.stats.hits.Load(),
		Misses:        ls.stats.misses.Load(),
		Refinements:   ls.stats.refinements.Load(),
		RefinedPoints: ls.stats.refinedPoints.Load(),
		DeltaAppends:  ls.stats.deltaAppends.Load(),
		DeltaPoints:   ls.stats.deltaPoints.Load(),
		DeltaBytes:    ls.stats.deltaBytes.Load(),
		Epoch:         ls.Epoch(),
	}
}

var _ ContourSource = (*LazySpace)(nil)

// --- settling ----------------------------------------------------------

func (ls *LazySpace) lockFor(pt int32) *sync.Mutex {
	return &ls.locks[int(pt)&(lazyLockShards-1)]
}

func (ls *LazySpace) getWorker() *lazyWorker { return ls.workers.Get().(*lazyWorker) }
func (ls *LazySpace) putWorker(w *lazyWorker) {
	ls.workers.Put(w)
}

func (w *lazyWorker) position(s *Space, pt int32) {
	s.Grid.Sel(int(pt), w.sel)
	optimizer.SetEPPSel(w.env, s.Q, w.sel)
}

// ensure settles pt if it is not settled yet.
func (ls *LazySpace) ensure(pt int32) {
	if ls.flags[pt].Load()&flagSolved != 0 {
		ls.stats.hits.Add(1)
		return
	}
	ls.stats.misses.Add(1)
	if ls.exactMode || ls.onLattice(pt) {
		if err := ls.solveExact(pt); err != nil {
			panic(err)
		}
		return
	}
	if err := ls.solveRecost(pt); err != nil {
		panic(err)
	}
}

func (ls *LazySpace) onLattice(pt int32) bool {
	g := ls.inner.Grid
	for d := 0; d < g.D; d++ {
		if !ls.lat.onLat[g.Coord(int(pt), d)] {
			return false
		}
	}
	return true
}

// solveExact settles pt with the exact DP (idempotent). The lock-free
// flag check makes re-requests of an already settled point (the common
// case for shared cell corners) free.
func (ls *LazySpace) solveExact(pt int32) error {
	if ls.flags[pt].Load()&flagSolved != 0 {
		return nil
	}
	lk := ls.lockFor(pt)
	lk.Lock()
	defer lk.Unlock()
	if ls.flags[pt].Load()&flagSolved != 0 {
		return nil
	}
	return ls.solveExactLocked(pt)
}

// solveExactLocked runs the DP at pt; the caller holds pt's lock shard
// and has verified the point is unsettled.
func (ls *LazySpace) solveExactLocked(pt int32) error {
	s := ls.inner
	w := ls.getWorker()
	defer ls.putWorker(w)
	w.position(s, pt)
	best := w.runner.Best(w.env)
	if best == nil {
		return fmt.Errorf("ess: optimizer found no plan at point %d", pt)
	}
	id := s.AddPlan(best.Root)
	s.PointPlan[pt] = id
	s.PointCost[pt] = best.Cost
	ls.stats.dpCalls.Add(1)
	ls.stats.settled.Add(1)
	ls.flags[pt].Store(flagSolved | flagExact) // release: values above are published
	ls.journal.settled(pt, true)
	return nil
}

// cellFor returns (building and memoizing on first demand) the anchor
// block of the cell whose all-lo corner is loPt. Corner DPs are
// resolved here, outside any point lock, so settles never nest locks.
func (ls *LazySpace) cellFor(loPt int32, coords []int) (*cellInfo, error) {
	if v, ok := ls.cells.Load(loPt); ok {
		return v.(*cellInfo), nil
	}
	s := ls.inner
	g := s.Grid
	D := g.D
	nCorners := 1 << uint(D)
	ci := &cellInfo{
		corners: make([]int32, nCorners),
		logc:    make([]float64, nCorners),
		plans:   make([]int32, nCorners),
	}
	for m := 0; m < nCorners; m++ {
		lin := 0
		for d := 0; d < D; d++ {
			c := ls.cellLo[coords[d]]
			if m&(1<<uint(d)) != 0 {
				c = ls.cellHi[coords[d]]
			}
			lin += c * g.strides[d]
		}
		if err := ls.solveExact(int32(lin)); err != nil {
			return nil, err
		}
		ci.corners[m] = int32(lin)
		ci.logc[m] = math.Log(s.PointCost[lin])
		ci.plans[m] = s.PointPlan[lin]
	}
	actual, _ := ls.cells.LoadOrStore(loPt, ci)
	return actual.(*cellInfo), nil
}

// solveRecost settles an off-lattice point from its cell's exactly
// solved lattice corners: the corner plans are recosted at the point
// and accepted under the log-interpolated anchor gate, falling back to
// the exact DP when the pool cannot explain the point's cost (see
// sweeper.recostCell for the eager twin of the gate).
//
// Candidates are tried nearest corner first: the nearest corner's
// optimum is the likeliest to cover the point, so the scan usually
// stops after one recost. Stopping once inside the band keeps the
// stored cost within the same [optimum, (1+θ)·estimate] envelope as a
// full scan — later candidates could only sharpen a value already
// accepted. The order is a pure function of the point and the exact
// corner values, so settling stays deterministic under concurrent
// demand.
func (ls *LazySpace) solveRecost(pt int32) error {
	s := ls.inner
	g := s.Grid
	D := g.D

	w := ls.getWorker()
	defer ls.putWorker(w)
	coords := g.Coords(int(pt), w.coords)
	lo := 0
	for d := 0; d < D; d++ {
		lo += ls.cellLo[coords[d]] * g.strides[d]
	}
	ci, err := ls.cellFor(int32(lo), coords)
	if err != nil {
		return err
	}

	lk := ls.lockFor(pt)
	lk.Lock()
	defer lk.Unlock()
	if ls.flags[pt].Load()&flagSolved != 0 {
		return nil
	}

	// Anchor gate: multilinear interpolation of the exact corner costs
	// in log space estimates the optimum here. The nearest corner (the
	// first candidate) is the one with maximal interpolation weight:
	// bit d set iff the point sits in the upper half of dimension d.
	wt := w.wt
	nearest := 0
	for d := 0; d < D; d++ {
		loI, hiI := ls.cellLo[coords[d]], ls.cellHi[coords[d]]
		wt[d] = float64(coords[d]-loI) / float64(hiI-loI)
		if wt[d] >= 0.5 {
			nearest |= 1 << uint(d)
		}
	}
	// Multilinear interpolation by successive pairwise reduction: fold
	// dimension d collapses corner pairs differing in bit d, so the
	// estimate costs O(2^D) fused ops instead of O(D*2^D) weight
	// products.
	nCorners := len(ci.corners)
	fold := w.fold[:nCorners]
	copy(fold, ci.logc)
	for d := 0; d < D; d++ {
		n := len(fold) / 2
		t := wt[d]
		for i := 0; i < n; i++ {
			a := fold[2*i]
			fold[i] = a + t*(fold[2*i+1]-a)
		}
		fold = fold[:n]
	}
	limit := (1 + ls.theta) * math.Exp(fold[0])

	w.position(s, pt)
	c1 := math.Inf(1)
	var best int32 = -1
	tried := w.tried[:0]
	try := func(pid int32) {
		for _, q := range tried {
			if q == pid {
				return
			}
		}
		tried = append(tried, pid)
		c := s.Model.Cost(s.Plan(pid).Root, w.env).Cost
		ls.stats.recostCalls.Add(1)
		if c < c1 || (c == c1 && (best < 0 || s.Plan(pid).Sig < s.Plan(best).Sig)) {
			c1, best = c, pid
		}
	}
	try(ci.plans[nearest])
	for m := 0; m < nCorners && c1 > limit; m++ {
		if m != nearest {
			try(ci.plans[m])
		}
	}
	w.tried = tried[:0]
	if c1 <= limit {
		s.PointPlan[pt] = best
		s.PointCost[pt] = c1
		ls.stats.recostPoints.Add(1)
		ls.stats.settled.Add(1)
		ls.flags[pt].Store(flagSolved)
		ls.journal.settled(pt, false)
		return nil
	}
	ls.stats.fallbacks.Add(1)
	return ls.solveExactLocked(pt)
}

// --- contour materialization ------------------------------------------

// contourKey builds the memo key: the learned vector's slice key (nil
// normalized to all-free) followed by the contour index's varint.
func (ls *LazySpace) contourKey(learned []int, ci int) string {
	D := ls.inner.Grid.D
	b := make([]byte, 0, (D+1)*2)
	if learned == nil {
		for range D {
			b = binary.AppendVarint(b, -1)
		}
	} else {
		b = AppendSliceKey(b, learned)
	}
	return string(binary.AppendVarint(b, int64(ci)))
}

// buildContour enumerates the points of contour ci on the slice. The
// cost surface is monotone nondecreasing along every dimension, so each
// innermost grid line holds at most one contour point — the largest
// in-budget index — found by binary search, and a whole subtree is
// pruned as soon as its minimum corner exceeds the budget. Membership
// is verified directly against the free-dimension successors, which
// also keeps the contour valid under the bounded monotonicity slips a
// recost-settled surface can have.
func (ls *LazySpace) buildContour(st *lazyState, learned []int, ci int) *Contour {
	g := ls.inner.Grid
	b := ls.budgets[ci]
	ct := &Contour{Index: ci + 1, Cost: ls.costs[ci]}

	var free []int
	base := 0
	for d := 0; d < g.D; d++ {
		v := -1
		if learned != nil {
			v = learned[d]
		}
		if v >= 0 {
			base += v * g.strides[d]
		} else {
			free = append(free, d)
		}
	}
	cost := func(pt int) float64 { return ls.costAtState(st, int32(pt)) }

	if len(free) == 0 {
		// Fully pinned slice: the single point sits on every contour
		// from its cost upward (no free successors to exceed).
		if cost(base) <= b {
			ct.Points = append(ct.Points, int32(base))
		}
		return ct
	}

	last := free[len(free)-1]
	// prevLo carries the boundary index of the previously searched line:
	// the contour is a continuous monotone surface, so adjacent lines
	// cross the budget at nearly the same index and a gallop from the
	// last boundary settles ~2 points per line where a cold binary
	// search settles O(log res). Purely an access-order optimization —
	// the boundary found is the same either way.
	prevLo := -1
	var rec func(k, lin int) bool
	rec = func(k, lin int) bool {
		// lin fixes free dims [0,k) and holds free dims [k,·) at index
		// 0 — the subtree's monotone minimum. Above budget ⇒ prune, and
		// the caller stops advancing its own index (costs only rise).
		if cost(lin) > b {
			return false
		}
		if k == len(free)-1 {
			var lo int
			if prevLo < 0 {
				hi := g.Res - 1
				for lo < hi {
					mid := (lo + hi + 1) / 2
					if cost(lin+mid*g.strides[last]) <= b {
						lo = mid
					} else {
						hi = mid - 1
					}
				}
			} else {
				lo = prevLo
				if cost(lin+lo*g.strides[last]) <= b {
					for lo < g.Res-1 && cost(lin+(lo+1)*g.strides[last]) <= b {
						lo++
					}
				} else {
					for lo--; cost(lin+lo*g.strides[last]) > b; lo-- {
					}
				}
			}
			prevLo = lo
			pt := lin + lo*g.strides[last]
			on := true
			for _, d := range free {
				if nxt := g.Step(pt, d); nxt >= 0 && cost(nxt) <= b {
					on = false
					break
				}
			}
			if on {
				ct.Points = append(ct.Points, int32(pt))
			}
			return true
		}
		d := free[k]
		for i := 0; i < g.Res; i++ {
			if !rec(k+1, lin+i*g.strides[d]) {
				break
			}
		}
		return true
	}
	rec(0, base)
	return ct
}

// costAtState is CostAt pinned to one refinement epoch, so a contour is
// computed against a coherent surface even while a refinement publishes.
func (ls *LazySpace) costAtState(st *lazyState, pt int32) float64 {
	if len(st.refined) > 0 {
		if r, ok := st.refined[pt]; ok {
			return r.cost
		}
	}
	ls.ensure(pt)
	return ls.inner.PointCost[pt]
}

// --- online refinement -------------------------------------------------

// Observe records a selectivity observation from a real spill-mode
// execution: dimension dim was learned (or bounded) at grid index idx.
// The observation is queued; ApplyRefinements folds queued observations
// into the surface. Out-of-range observations are ignored.
func (ls *LazySpace) Observe(dim, idx int) {
	g := ls.inner.Grid
	if dim < 0 || dim >= g.D || idx < 0 || idx >= g.Res {
		return
	}
	ls.refMu.Lock()
	ls.pending[[2]int{dim, idx}] = struct{}{}
	ls.refMu.Unlock()
}

// ApplyRefinements re-solves, exactly, every recost-settled point on
// the grid slices named by the queued observations, and publishes the
// changed values as a new copy-on-write overlay (bumping the epoch and
// invalidating the contour memos). It returns the number of points
// whose value actually changed. Exactly solved and already refined
// points are skipped — refinement only ever sharpens recost estimates.
//
// Publication order: the overlay first, then the refined flags, then
// the journal. A reader that sees a point as exact-grade (ValueAt,
// DeltaSince) therefore reads its final value, never the superseded
// recost estimate under an exact label.
func (ls *LazySpace) ApplyRefinements() int {
	ls.refMu.Lock()
	defer ls.refMu.Unlock()
	if len(ls.pending) == 0 {
		return 0
	}
	obs := make([][2]int, 0, len(ls.pending))
	for o := range ls.pending {
		obs = append(obs, o)
	}
	ls.pending = make(map[[2]int]struct{})

	targets := ls.refinementTargets(obs)
	ls.stats.refinements.Add(1)
	if len(targets) == 0 {
		return 0
	}

	s := ls.inner
	w := ls.getWorker()
	defer ls.putWorker(w)
	changed := make(map[int32]refinedVal)
	upgraded := targets[:0]
	for _, pt := range targets {
		w.position(s, pt)
		best := w.runner.Best(w.env)
		if best == nil {
			continue
		}
		ls.stats.dpCalls.Add(1)
		id := s.AddPlan(best.Root)
		if best.Cost != s.PointCost[pt] || id != s.PointPlan[pt] {
			changed[pt] = refinedVal{cost: best.Cost, plan: id}
		}
		upgraded = append(upgraded, pt)
	}
	if len(changed) > 0 {
		old := ls.state.Load()
		next := &lazyState{
			refined: make(map[int32]refinedVal, len(old.refined)+len(changed)),
			epoch:   old.epoch + 1,
		}
		for pt, v := range old.refined {
			next.refined[pt] = v
		}
		for pt, v := range changed {
			next.refined[pt] = v
		}
		ls.state.Store(next)
		ls.stats.refinedPoints.Add(int64(len(changed)))
	}
	// Mark refined whether or not the value moved: the point is now
	// exact-grade and never re-solved. Only this method writes the bit,
	// and it holds refMu.
	for _, pt := range upgraded {
		ls.flags[pt].Store(ls.flags[pt].Load() | flagRefined)
	}
	ls.journal.upgraded(upgraded)
	return len(changed)
}

// refinementTargets returns, ascending, the recost-grade points lying on
// a grid slice named by an observation. It reads the journal's list of
// recost-settled points rather than every grid flag, and drops from it
// the points refinement has since upgraded.
func (ls *LazySpace) refinementTargets(obs [][2]int) []int32 {
	g := ls.inner.Grid
	j := &ls.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	var targets []int32
	keep := j.recost[:0]
	for _, pt := range j.recost {
		if ls.flags[pt].Load()&(flagExact|flagRefined) != 0 {
			continue
		}
		keep = append(keep, pt)
		for _, o := range obs {
			if g.Coord(int(pt), o[0]) == o[1] {
				targets = append(targets, pt)
				break
			}
		}
	}
	j.recost = keep
	slices.Sort(targets)
	return slices.Compact(targets)
}

// --- persistence support ----------------------------------------------

// SettledPoints returns the linear indexes of all settled points,
// ascending.
func (ls *LazySpace) SettledPoints() []int32 {
	var out []int32
	for pt := range ls.flags {
		if ls.flags[pt].Load()&flagSolved != 0 {
			out = append(out, int32(pt))
		}
	}
	return out
}

// ValueAt returns the settled value of pt (overlay first) and whether
// the point is exact-grade (DP-solved or refined). The point must be
// settled.
func (ls *LazySpace) ValueAt(pt int32) (costv float64, planID int32, exact bool) {
	f := ls.flags[pt].Load()
	exact = f&(flagExact|flagRefined) != 0
	if st := ls.state.Load(); len(st.refined) > 0 {
		if r, ok := st.refined[pt]; ok {
			return r.cost, r.plan, true
		}
	}
	return ls.inner.PointCost[pt], ls.inner.PointPlan[pt], exact
}

// preload installs a settled value during snapshot reconstruction. It
// must only be called before the space is shared across goroutines.
func (ls *LazySpace) preload(pt int32, costv float64, planID int32, exact bool) {
	ls.inner.PointCost[pt] = costv
	ls.inner.PointPlan[pt] = planID
	f := flagSolved
	if exact {
		f |= flagExact
	}
	if ls.flags[pt].Load()&flagSolved == 0 {
		ls.stats.settled.Add(1)
	}
	ls.flags[pt].Store(f)
	ls.journal.settled(pt, exact)
}
