package ess

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/optimizer"
)

// SweepStats reports the work profile of the POSP sweep that built a
// Space: how many grid points were settled by the exact DP versus by
// recosting pooled plans, and how much recosting work that took.
type SweepStats struct {
	// Points is the total number of grid locations.
	Points int
	// LatticeDP is the number of phase-1 coarse-lattice points (0 for an
	// exact sweep).
	LatticeDP int
	// DPCalls counts exact optimizer invocations: lattice seeds,
	// ambiguity fallbacks, and monotonicity repairs.
	DPCalls int
	// RecostPoints is the number of points settled by recosting pooled
	// plans instead of running the DP.
	RecostPoints int
	// RecostCalls counts individual plan recostings (cost.Model.Cost).
	RecostCalls int64
	// Fallbacks is the number of phase-2 points where the best recost
	// overran the corner-anchored estimate and the exact DP ran instead.
	Fallbacks int
	// Repairs counts points re-solved exactly by the monotonicity repair
	// pass, and RepairRounds the number of repair iterations.
	Repairs, RepairRounds int
}

// FallbackRate is the fraction of phase-2 (off-lattice) points that fell
// back to the exact DP.
func (st SweepStats) FallbackRate() float64 {
	phase2 := st.Points - st.LatticeDP
	if phase2 <= 0 {
		return 0
	}
	return float64(st.Fallbacks) / float64(phase2)
}

// DPReduction is the factor by which exact DP invocations dropped
// relative to the one-DP-per-point exact sweep.
func (st SweepStats) DPReduction() float64 {
	if st.DPCalls == 0 {
		return 1
	}
	return float64(st.Points) / float64(st.DPCalls)
}

// runParallel runs fn over items [0,n) on up to `workers` goroutines
// pulling indexes from a shared atomic counter, so a straggling item
// never serializes the tail the way static chunking does. The first
// error cancels the remaining work and is returned.
func runParallel(workers, n int, fn func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	errc := make(chan error, 1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					stop.Store(true)
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// sweeper carries the shared state of one POSP sweep.
type sweeper struct {
	s   *Space
	cfg Config

	// The sweep owns a private, mutable pool; Space.publishPlans installs
	// it as the immutable snapshot once the sweep is done.
	poolMu sync.Mutex
	sigID  map[string]*PlanInfo
	plans  []*PlanInfo

	// exact marks points settled by the DP (vs. recost).
	exact []bool

	dpCalls     atomic.Int64
	recostCalls atomic.Int64
	recostPts   atomic.Int64
	fallbacks   atomic.Int64
}

// worker is per-goroutine sweep scratch.
type sweepWorker struct {
	runner *optimizer.Runner
	env    *cost.Env
	sel    []float64
	local  map[string]*PlanInfo // worker-local sig cache
}

func (sw *sweeper) newWorker() *sweepWorker {
	return &sweepWorker{
		runner: sw.s.opt.NewRunner(),
		env:    sw.s.BaseEnv.Clone(),
		sel:    make([]float64, sw.s.Grid.D),
		local:  make(map[string]*PlanInfo),
	}
}

// intern deduplicates a plan into the shared pool by signature.
func (sw *sweeper) intern(sig string, root func() *PlanInfo) *PlanInfo {
	sw.poolMu.Lock()
	defer sw.poolMu.Unlock()
	if p, ok := sw.sigID[sig]; ok {
		return p
	}
	info := root()
	info.ID = len(sw.plans)
	sw.plans = append(sw.plans, info)
	sw.sigID[sig] = info
	return info
}

// solve runs the exact DP at pt, records the optimum, and returns the
// interned pool entry. The returned pointer is safe to hold while other
// workers grow the pool.
func (sw *sweeper) solve(w *sweepWorker, pt int32) (*PlanInfo, error) {
	s := sw.s
	s.Grid.Sel(int(pt), w.sel)
	optimizer.SetEPPSel(w.env, s.Q, w.sel)
	best := w.runner.Best(w.env)
	if best == nil {
		return nil, fmt.Errorf("ess: optimizer found no plan at point %d", pt)
	}
	sw.dpCalls.Add(1)
	sig := best.Root.Signature()
	p, ok := w.local[sig]
	if !ok {
		p = sw.intern(sig, func() *PlanInfo { return &PlanInfo{Root: best.Root, Sig: sig} })
		w.local[sig] = p
	}
	s.PointPlan[pt] = int32(p.ID)
	s.PointCost[pt] = best.Cost
	if sw.exact != nil {
		sw.exact[pt] = true
	}
	return p, nil
}

// sweep dispatches to the exact or the recost-first pipeline and stamps
// Space.Stats.
func (s *Space) sweep(cfg Config) error {
	sw := &sweeper{s: s, cfg: cfg, sigID: make(map[string]*PlanInfo)}
	var err error
	if cfg.exact() {
		err = sw.runExact()
	} else {
		sw.exact = make([]bool, s.Grid.NumPoints())
		err = sw.runRecost()
	}
	if err != nil {
		return err
	}
	sw.renumberBySig()
	s.publishPlans(sw.plans)
	s.Stats.Points = s.Grid.NumPoints()
	s.Stats.DPCalls = int(sw.dpCalls.Load())
	s.Stats.RecostPoints = int(sw.recostPts.Load())
	s.Stats.RecostCalls = sw.recostCalls.Load()
	s.Stats.Fallbacks = int(sw.fallbacks.Load())
	return nil
}

// renumberBySig reassigns pool IDs in signature order and remaps the
// point plans to match. Workers intern plans in the order they happen to
// settle them, so without this the same build numbers its plans
// differently from run to run and across worker counts.
func (sw *sweeper) renumberBySig() {
	sort.Slice(sw.plans, func(a, b int) bool { return sw.plans[a].Sig < sw.plans[b].Sig })
	remap := make([]int32, len(sw.plans))
	for id, p := range sw.plans {
		remap[p.ID] = int32(id)
		p.ID = id
	}
	for pt, pid := range sw.s.PointPlan {
		sw.s.PointPlan[pt] = remap[pid]
	}
}

// runExact optimizes every grid location — the classic POSP enumeration.
func (sw *sweeper) runExact() error {
	n := sw.s.Grid.NumPoints()
	workers := makeWorkers(sw, sw.cfg.Workers)
	return runParallel(len(workers), n, func(w, pt int) error {
		_, err := sw.solve(workers[w], int32(pt))
		return err
	})
}

func makeWorkers(sw *sweeper, n int) []*sweepWorker {
	if n < 1 {
		n = 1
	}
	ws := make([]*sweepWorker, n)
	for i := range ws {
		ws[i] = sw.newWorker()
	}
	return ws
}

// lattice describes the phase-1 coarse sub-lattice: every k-th grid
// index per dimension, with the top index (and thus every grid corner)
// always included.
type lattice struct {
	idx   []int // the lattice indexes, ascending
	onLat []bool
	floor []int // per grid index, the lattice index at or below it
	ceil  []int // per grid index, the lattice index at or above it
}

func newLattice(res, step int) *lattice {
	l := &lattice{onLat: make([]bool, res), floor: make([]int, res), ceil: make([]int, res)}
	for i := 0; i < res; i += step {
		l.idx = append(l.idx, i)
	}
	if last := l.idx[len(l.idx)-1]; last != res-1 {
		l.idx = append(l.idx, res-1)
	}
	for _, i := range l.idx {
		l.onLat[i] = true
	}
	lo := 0
	for i := 0; i < res; i++ {
		if l.onLat[i] {
			lo = i
		}
		l.floor[i] = lo
	}
	hi := res - 1
	for i := res - 1; i >= 0; i-- {
		if l.onLat[i] {
			hi = i
		}
		l.ceil[i] = hi
	}
	return l
}

// points enumerates the full-lattice grid points (ascending by
// construction: dimension 0 is the outermost stride).
func (l *lattice) points(g *Grid) []int32 {
	var out []int32
	var rec func(d, lin int)
	rec = func(d, lin int) {
		if d == g.D {
			out = append(out, int32(lin))
			return
		}
		for _, i := range l.idx {
			rec(d+1, lin+i*g.strides[d])
		}
	}
	rec(0, 0)
	return out
}

// cells enumerates the coarse cells as their per-dimension interval
// starts; cell c covers grid coords [idx[c_d], idx[c_d+1]] on each dim.
func (l *lattice) cells(g *Grid) [][]int {
	m := len(l.idx) - 1 // intervals per dimension
	if m <= 0 {
		return nil
	}
	var out [][]int
	cur := make([]int, g.D)
	var rec func(d int)
	rec = func(d int) {
		if d == g.D {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < m; i++ {
			cur[d] = i
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// cellCoords lists the grid coords cell interval i owns on one
// dimension: [idx[i], idx[i+1]), closing the top interval so every grid
// coord belongs to exactly one interval.
func (l *lattice) cellCoords(i int) []int {
	lo, hi := l.idx[i], l.idx[i+1]
	var out []int
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	if i == len(l.idx)-2 {
		out = append(out, hi)
	}
	return out
}

// runRecost is the two-phase pipeline: exact DP on the coarse lattice to
// seed the plan pool, then recost-first coverage of the remaining points
// with DP fallback where the recost outcome is ambiguous, and a PCM
// monotonicity repair.
func (sw *sweeper) runRecost() error {
	s := sw.s
	g := s.Grid
	lat := newLattice(g.Res, sw.cfg.CoarseStep)

	// Phase 1: exact DP on the sub-lattice.
	pts := lat.points(g)
	workers := makeWorkers(sw, sw.cfg.Workers)
	if err := runParallel(len(workers), len(pts), func(w, i int) error {
		_, err := sw.solve(workers[w], pts[i])
		return err
	}); err != nil {
		return err
	}
	latticeDP := len(pts)

	// Phase 2: per coarse cell, settle off-lattice points from the solved
	// lattice neighbors, falling back to the DP where the recost outcome
	// is ambiguous.
	cells := lat.cells(g)
	if err := runParallel(len(workers), len(cells), func(w, i int) error {
		return sw.recostCell(workers[w], lat, cells[i])
	}); err != nil {
		return err
	}

	// Phase 3: relax across cell boundaries — plan-optimality regions do
	// not respect the coarse cells, so let every settled plan flow to
	// neighboring points where it is strictly cheaper than their current
	// assignment.
	sw.relax(workers[0])

	// Phase 4: repair any PCM monotonicity violations introduced where a
	// recost upper bound exceeds an exactly-solved successor.
	if err := sw.repair(workers[0]); err != nil {
		return err
	}
	sw.s.Stats.LatticeDP = latticeDP
	return nil
}

// relax floods settled plans across the grid: wherever a neighboring
// point's plan is strictly cheaper at a point than its current
// assignment, the point adopts it, and the adoption can propagate on
// the next visit. Alternating ascending/descending passes run to a
// fixpoint. Exact points are never displaced — no plan strictly beats
// an exact optimum — so only recost-settled points move, monotonically
// downward toward the true pool minimum. Runs sequentially after the
// parallel phases, so reads of the pool and the surface are safe.
func (sw *sweeper) relax(w *sweepWorker) {
	s := sw.s
	g := s.Grid
	n := g.NumPoints()
	for round := 0; ; round++ {
		changed := false
		for i := 0; i < n; i++ {
			pt := i
			if round%2 == 1 {
				pt = n - 1 - i
			}
			cur := s.PointCost[pt]
			curPlan := s.PointPlan[pt]
			positioned := false
			for d := 0; d < g.D; d++ {
				for _, nb := range [2]int{g.Step(pt, d), g.StepDown(pt, d)} {
					if nb < 0 {
						continue
					}
					np := s.PointPlan[nb]
					if np == curPlan {
						continue
					}
					if !positioned {
						w.position(s, int32(pt))
						positioned = true
					}
					if c := sw.planAt(w, sw.plans[np]); c < cur {
						cur, curPlan = c, np
						s.PointCost[pt] = c
						s.PointPlan[pt] = np
						changed = true
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// planAt recosts one pooled plan at the worker env's current position.
func (sw *sweeper) planAt(w *sweepWorker, p *PlanInfo) float64 {
	sw.recostCalls.Add(1)
	return sw.s.Model.Cost(p.Root, w.env).Cost
}

func (w *sweepWorker) position(s *Space, pt int32) {
	s.Grid.Sel(int(pt), w.sel)
	optimizer.SetEPPSel(w.env, s.Q, w.sel)
}

// acceptedPoint records a recost-settled point and how many of the
// cell's candidates it has already been costed against.
type acceptedPoint struct {
	pt   int32
	seen int32
}

// recostCell settles every off-lattice point of one coarse cell from
// its already-solved lattice neighbors. The candidate list starts as
// the distinct plans the cell's 2^D corners chose and grows with every
// plan a fallback DP discovers inside the cell — region flooding: once
// a sliver plan invisible to the lattice surfaces at one point, the
// rest of its optimality region is settled by recost instead of more
// DPs. A final pass folds candidates discovered late into points
// accepted early, so every recost-settled point carries the minimum
// over the cell's full candidate set.
func (sw *sweeper) recostCell(w *sweepWorker, lat *lattice, cell []int) error {
	s := sw.s
	g := s.Grid
	theta := sw.cfg.Theta

	// Seed candidates: the distinct plans at the cell's 2^D corners.
	// Corner points were settled in phase 1, and the PlanInfo pointers
	// stay valid while other cells' fallbacks grow the pool. The exact
	// corner costs double as the anchor for the fallback gate: the grid
	// is geometric in selectivity and the cost model near log-linear
	// across a cell, so a multilinear interpolation of log corner costs
	// predicts the exact optimum at interior points well.
	nCorners := 1 << uint(g.D)
	logc := make([]float64, nCorners)
	cands := make([]*PlanInfo, 0, 8)
	for m := 0; m < nCorners; m++ {
		corner := 0
		for d := 0; d < g.D; d++ {
			i := cell[d]
			if m&(1<<uint(d)) != 0 {
				i++
			}
			corner += lat.idx[i] * g.strides[d]
		}
		logc[m] = math.Log(s.PointCost[corner])
		p := sw.planByID(s.PointPlan[corner])
		dup := false
		for _, q := range cands {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			cands = append(cands, p)
		}
	}

	coords := make([][]int, g.D)
	for d := range coords {
		coords[d] = lat.cellCoords(cell[d])
	}
	wt := make([]float64, g.D)
	var accepted []acceptedPoint
	idx := make([]int, g.D)
	for {
		lin, allLat := 0, true
		for d := range idx {
			c := coords[d][idx[d]]
			lin += c * g.strides[d]
			if !lat.onLat[c] {
				allLat = false
			}
			lo, hi := lat.idx[cell[d]], lat.idx[cell[d]+1]
			wt[d] = float64(c-lo) / float64(hi-lo)
		}
		if !allLat && !sw.exact[lin] {
			pt := int32(lin)
			w.position(s, pt)
			c1 := math.Inf(1)
			var best *PlanInfo
			for _, p := range cands {
				c := sw.planAt(w, p)
				if c < c1 || (c == c1 && (best == nil || p.Sig < best.Sig)) {
					c1, best = c, p
				}
			}
			// Anchor gate: interpolate the exact corner costs (linear in
			// log-cost over index space) to estimate the optimum here. A
			// best recost within (1+θ) of the estimate is coherent with
			// the solved neighborhood; one that overshoots it suggests
			// the true plan is missing from the pool. With unanimous
			// corners the recost IS the region's plan and any gap to the
			// estimate is that plan's own curvature, so accept outright.
			lest := 0.0
			for m := 0; m < nCorners; m++ {
				t := logc[m]
				for d := 0; d < g.D; d++ {
					if m&(1<<uint(d)) != 0 {
						t *= wt[d]
					} else {
						t *= 1 - wt[d]
					}
				}
				lest += t
			}
			if c1 <= (1+theta)*math.Exp(lest) {
				s.PointPlan[pt] = int32(best.ID)
				s.PointCost[pt] = c1
				sw.recostPts.Add(1)
				accepted = append(accepted, acceptedPoint{pt: pt, seen: int32(len(cands))})
			} else {
				// The pool can't explain this point's cost: resolve
				// exactly and flood the discovery into the rest of the
				// cell.
				sw.fallbacks.Add(1)
				p, err := sw.solve(w, pt)
				if err != nil {
					return err
				}
				fresh := true
				for _, q := range cands {
					if q == p {
						fresh = false
						break
					}
				}
				if fresh {
					cands = append(cands, p)
				}
			}
		}
		d := g.D - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(coords[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}

	// Fold late discoveries into early acceptances: each settled point
	// ends up carrying the minimum over the full candidate list.
	for _, a := range accepted {
		if int(a.seen) == len(cands) {
			continue
		}
		sw.lowerWith(w, cands[a.seen:], a.pt)
	}
	return nil
}

// planByID reads a pool entry by ID under the pool lock (other workers
// may be appending to the pool concurrently).
func (sw *sweeper) planByID(id int32) *PlanInfo {
	sw.poolMu.Lock()
	defer sw.poolMu.Unlock()
	return sw.plans[id]
}

// lowerWith re-points a recost-settled point at any of the given plans
// that is cheaper there (ties broken toward the smaller signature, the
// DP's own tie-break).
func (sw *sweeper) lowerWith(w *sweepWorker, plans []*PlanInfo, pt int32) {
	s := sw.s
	w.position(s, pt)
	cur := s.PointCost[pt]
	curSig := sw.planByID(s.PointPlan[pt]).Sig
	for _, p := range plans {
		c := sw.planAt(w, p)
		if c < cur || (c == cur && p.Sig < curSig) {
			cur, curSig = c, p.Sig
			s.PointCost[pt] = c
			s.PointPlan[pt] = int32(p.ID)
		}
	}
}

// repair restores strict PCM monotonicity: wherever a recost-settled
// point's upper bound meets or exceeds a grid successor's cost, the
// point is re-solved exactly (the true optimum is strictly below its
// successors'). New plans surfaced by those DPs are folded back into the
// remaining recost-settled points, and the scan iterates to a fixpoint —
// each round converts at least one point to exact, so it terminates.
func (sw *sweeper) repair(w *sweepWorker) error {
	s := sw.s
	g := s.Grid
	n := g.NumPoints()
	for {
		var bad []int32
		for pt := 0; pt < n; pt++ {
			if sw.exact[pt] {
				continue
			}
			for d := 0; d < g.D; d++ {
				if nxt := g.Step(pt, d); nxt >= 0 && s.PointCost[nxt] <= s.PointCost[pt] {
					bad = append(bad, int32(pt))
					break
				}
			}
		}
		if len(bad) == 0 {
			return nil
		}
		s.Stats.RepairRounds++
		before := len(sw.plans)
		for _, pt := range bad {
			if _, err := sw.solve(w, pt); err != nil {
				return err
			}
			sw.recostPts.Add(-1) // the point is now exact, not recost-settled
			s.Stats.Repairs++
		}
		if delta := sw.plans[before:]; len(delta) > 0 {
			for pt := 0; pt < n; pt++ {
				if !sw.exact[pt] {
					sw.lowerWith(w, delta, int32(pt))
				}
			}
		}
	}
}
