package alignedbound

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core/bouquet"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/optimizer"
)

// LeaderExec is one chosen leader execution on a contour: a spill-mode
// run that covers a PSA part.
type LeaderExec struct {
	// Dim is the leader dimension the execution learns.
	Dim int
	// PlanID is the plan to run in spill-mode (an original POSP plan for
	// native alignment, a replacement plan when induced).
	PlanID int32
	// Budget is the assigned cost limit: CC_i for native alignment,
	// Cost(P, q) of the replacement pair when induced (§5.2.1).
	Budget float64
	// Penalty is the replacement penalty Δ (1 for native alignment).
	Penalty float64
	// Induced reports whether alignment was induced by plan replacement.
	Induced bool
}

// Decision is the alignment plan for one (slice, contour): the chosen
// minimum-penalty partition's leader executions.
type Decision struct {
	// Execs are the leader executions, ordered by dimension.
	Execs []LeaderExec
	// Penalty is π*, the partition's total penalty (vacuous parts
	// contribute nothing).
	Penalty float64
	// Parts is the number of non-vacuous parts covered.
	Parts int
}

// Planner computes and caches alignment decisions. Decisions depend only
// on the contour, the learned-dimension slice, and the source's
// refinement epoch, so they are shared across discovery runs (and across
// goroutines in MSO sweeps) and recomputed exactly when online
// refinement publishes a new overlay. The cache holds the current
// epoch's decisions only: the first Decide at a newer epoch drops the
// older ones, and a caller still at an older epoch is answered with a
// decision that is computed but not stored.
//
// Replacement candidates are drawn from the plans appearing on the
// contour being decided (in canonical signature order) plus the
// optimizer probe — a pure function of the contour itself, so eager and
// lazy sources over the same surface decide identically regardless of
// how much of the grid either has materialized. A probe depends only on
// its location and the remaining dimensions, never on the epoch, so the
// planner memoizes probes for its whole life.
type Planner struct {
	// S is the contour provider.
	S ess.ContourSource
	// UseOptimizer enables per-spill-class optimizer probes when the
	// contour lacks a plan spilling on the needed dimension cheaply —
	// the engine hook of §6.1.
	UseOptimizer bool

	mu sync.Mutex
	// epoch is the refinement epoch whose decisions cache holds.
	epoch  uint64
	cache  map[string]*Decision
	probes map[probeKey][]probeClass
	ev     *ess.Evaluator
}

// probeKey identifies an optimizer probe: the grid location whose
// environment it costs under, and the remaining-dimension mask that
// defines its spill classes.
type probeKey struct {
	pt   int32
	mask uint16
}

// probeClass is one spill class's winner in a memoized probe. It keeps
// no plan tree: the winner's cost is all that decides whether it
// replaces anything, and its pool ID, −1 until a decision first picks
// it, is all a decision records.
type probeClass struct {
	joinID, planID int32
	cost           float64
}

// NewPlanner creates a planner over the source with optimizer probes on.
func NewPlanner(src ess.ContourSource) *Planner {
	return &Planner{
		S: src, UseOptimizer: true,
		cache:  make(map[string]*Decision),
		probes: make(map[probeKey][]probeClass),
		ev:     src.NewEvaluator(),
	}
}

// Prime precomputes the root-slice decision of every contour, so
// concurrent runs start from a warm cache instead of serializing on the
// planner mutex while it fills.
func (p *Planner) Prime() {
	learned := make([]int, p.S.Geometry().D)
	for d := range learned {
		learned[d] = -1
	}
	for ci := 0; ci < p.S.NumContours(); ci++ {
		p.Decide(learned, ci)
	}
}

// Decide returns the alignment decision for the contour of the slice
// identified by learned (learned[d] ≥ 0 pins dimension d).
func (p *Planner) Decide(learned []int, contourIdx int) *Decision {
	epoch := p.S.Epoch()
	var buf [64]byte
	key := appendDecisionKey(buf[:0], learned, contourIdx)
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch < p.epoch {
		return p.compute(learned, contourIdx)
	}
	if epoch > p.epoch {
		clear(p.cache)
		p.epoch = epoch
	}
	// Looking a hit up through string(key) does not allocate; only a
	// stored miss copies the key.
	if d, ok := p.cache[string(key)]; ok {
		return d
	}
	d := p.compute(learned, contourIdx)
	p.cache[string(key)] = d
	return d
}

// appendDecisionKey appends the decision cache key of a slice's contour
// to b: the slice key, then the contour index's varint.
func appendDecisionKey(b []byte, learned []int, contourIdx int) []byte {
	return binary.AppendVarint(ess.AppendSliceKey(b, learned), int64(contourIdx))
}

// compute builds the decision: per-dimension spill geometry, induced
// alignment penalties, and the minimum-penalty partition cover.
func (p *Planner) compute(learned []int, contourIdx int) *Decision {
	ic := p.S.ContourAt(learned, contourIdx)

	var rem []int
	var remMask uint16
	for d, v := range learned {
		if v < 0 {
			rem = append(rem, d)
			remMask |= 1 << uint(d)
		}
	}

	geo := p.contourGeometry(ic, remMask)

	// induceCache memoizes the minimum-cost replacement for (leader dim,
	// target coordinate) pairs within this contour.
	induceCache := map[[2]int]induceRes{}
	induce := func(dim, coord int) induceRes {
		k := [2]int{dim, coord}
		if r, ok := induceCache[k]; ok {
			return r
		}
		pid, budget, penalty := p.induceAlignment(ic, remMask, dim, coord)
		r := induceRes{planID: pid, budget: budget, penalty: penalty}
		induceCache[k] = r
		return r
	}

	best := &Decision{Penalty: math.Inf(1)}
	for _, parts := range Partitions(rem) {
		var execs []LeaderExec
		total := 0.0
		feasible := true
		nonVacuous := 0
		for _, part := range parts {
			ex, pen, vacuous, ok := p.bestLeader(ic, geo, part, induce)
			if !ok {
				feasible = false
				break
			}
			if vacuous {
				continue
			}
			nonVacuous++
			total += pen
			execs = append(execs, ex)
		}
		if !feasible {
			continue
		}
		if total < best.Penalty-1e-12 ||
			(math.Abs(total-best.Penalty) <= 1e-12 && len(execs) < len(best.Execs)) {
			ordered := append([]LeaderExec(nil), execs...)
			sortExecs(ordered)
			best = &Decision{Execs: ordered, Penalty: total, Parts: nonVacuous}
		}
	}
	return best
}

// induceRes is a memoized minimum-cost replacement for inducing
// alignment on a (dimension, coordinate) pair.
type induceRes struct {
	planID  int32
	budget  float64
	penalty float64
}

// geometry summarizes the contour's spill structure: for each pair of
// dimensions (s, j), the maximum j-coordinate among contour points whose
// optimal plan spills on s, and the corresponding argmax point for the
// diagonal (q^j_max).
type geometry struct {
	// maxCoord[s][j]: max j coordinate over points spilling on s; -1 if
	// no point spills on s.
	maxCoord [][]int
	// argmax[j]: the point realizing maxCoord[j][j] (q^j_max), -1 absent.
	argmax []int32
	// extreme[j]: the maximum j coordinate over all contour points.
	extreme []int
}

func (p *Planner) contourGeometry(ic *ess.Contour, remMask uint16) *geometry {
	src := p.S
	grid := src.Geometry()
	D := grid.D
	g := &geometry{
		maxCoord: make([][]int, D),
		argmax:   make([]int32, D),
		extreme:  make([]int, D),
	}
	for d := 0; d < D; d++ {
		g.maxCoord[d] = make([]int, D)
		for j := 0; j < D; j++ {
			g.maxCoord[d][j] = -1
		}
		g.argmax[d] = -1
		g.extreme[d] = -1
	}
	for _, pt := range ic.Points {
		sd := src.SpillDim(src.PlanAt(pt), remMask)
		for j := 0; j < D; j++ {
			c := grid.Coord(int(pt), j)
			if c > g.extreme[j] {
				g.extreme[j] = c
			}
			if sd >= 0 {
				if c > g.maxCoord[sd][j] {
					g.maxCoord[sd][j] = c
					if sd == j {
						g.argmax[j] = pt
					}
				} else if sd == j && c == g.maxCoord[sd][j] && g.argmax[j] >= 0 && pt > g.argmax[j] {
					g.argmax[j] = pt
				}
			}
		}
	}
	return g
}

// bestLeader evaluates a PSA part: it returns the cheapest leader
// execution over the candidate leader dimensions of the part, the
// penalty, whether the part is vacuous (no contour point spills on it),
// and feasibility.
func (p *Planner) bestLeader(ic *ess.Contour, geo *geometry, part []int,
	induce func(dim, coord int) induceRes) (LeaderExec, float64, bool, bool) {

	// Vacuous part: no contour plan spills on any of its dims.
	vacuous := true
	for _, d := range part {
		if geo.maxCoord[d][d] >= 0 {
			vacuous = false
			break
		}
	}
	if vacuous {
		return LeaderExec{}, 0, true, true
	}

	best := LeaderExec{Penalty: math.Inf(1)}
	found := false
	for _, j := range part {
		// q^j_T: the extreme j coordinate among points spilling in T.
		coord := -1
		for _, sdim := range part {
			if geo.maxCoord[sdim][j] > coord {
				coord = geo.maxCoord[sdim][j]
			}
		}
		if coord < 0 {
			continue
		}
		// Native PSA: q^j_max reaches the part's extreme along j.
		if geo.argmax[j] >= 0 && geo.maxCoord[j][j] >= coord {
			ex := LeaderExec{
				Dim: j, PlanID: p.S.PlanAt(geo.argmax[j]),
				Budget: ic.Cost, Penalty: 1, Induced: false,
			}
			if ex.Penalty < best.Penalty {
				best, found = ex, true
			}
			continue
		}
		// Induced PSA via minimum-cost replacement.
		r := induce(j, coord)
		if math.IsInf(r.penalty, 1) {
			continue
		}
		ex := LeaderExec{Dim: j, PlanID: r.planID, Budget: r.budget, Penalty: r.penalty, Induced: true}
		if ex.Penalty < best.Penalty {
			best, found = ex, true
		}
	}
	if !found {
		return LeaderExec{}, 0, false, false
	}
	return best, best.Penalty, false, true
}

// induceAlignment finds the minimum-cost (plan, location) replacement
// pair that makes dimension dim aligned at the target coordinate: the
// plan must spill on dim and sit at a contour location whose
// dim-coordinate equals the target (§5.2.1). Returns penalty +Inf if no
// candidate exists.
func (p *Planner) induceAlignment(ic *ess.Contour, remMask uint16, dim, coord int) (int32, float64, float64) {
	src := p.S
	grid := src.Geometry()
	bestPlan := int32(-1)
	bestCost := math.Inf(1)
	bestOpt := 1.0

	// Location set S: contour points at the target coordinate.
	var locs []int32
	for _, pt := range ic.Points {
		if grid.Coord(int(pt), dim) == coord {
			locs = append(locs, pt)
		}
	}

	// Candidate plans spilling on dim, drawn from the distinct plans
	// appearing on this contour, in canonical signature order (pool IDs
	// are settle-order dependent; signatures are not — see Planner doc).
	seen := map[int32]bool{}
	var pool []int32
	for _, pt := range ic.Points {
		pid := src.PlanAt(pt)
		if seen[pid] {
			continue
		}
		seen[pid] = true
		if src.SpillDim(pid, remMask) == dim {
			pool = append(pool, pid)
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		return src.Plan(pool[a]).Sig < src.Plan(pool[b]).Sig
	})
	for _, q := range locs {
		for _, pid := range pool {
			if c := p.ev.PlanCost(pid, q); c < bestCost {
				bestCost, bestPlan, bestOpt = c, pid, src.CostAt(q)
			}
		}
	}

	// Optimizer probe: ask for the cheapest plan in the spill class at
	// the most promising location (minimum optimal cost).
	if p.UseOptimizer && len(locs) > 0 {
		qBest := locs[0]
		for _, q := range locs[1:] {
			if src.CostAt(q) < src.CostAt(qBest) {
				qBest = q
			}
		}
		if c, pid, ok := p.probe(qBest, remMask, src.Query().EPPs[dim], bestCost); ok {
			bestCost, bestPlan, bestOpt = c, pid, src.CostAt(qBest)
		}
	}

	if bestPlan < 0 {
		return -1, 0, math.Inf(1)
	}
	return bestPlan, bestCost, bestCost / bestOpt
}

// probe returns the cost and pool ID of the cheapest plan of joinID's
// spill class at pt, when that plan is cheaper than below; ok is false
// otherwise. The per-class winners of each (pt, remMask) are memoized,
// and a winner is interned into the pool only when it is first chosen,
// so the pool grows exactly as it would with a fresh probe every time.
// A chosen winner not yet interned, whose probe ran in an earlier call,
// re-runs that probe for its plan tree. Callers hold p.mu.
func (p *Planner) probe(pt int32, remMask uint16, joinID int, below float64) (float64, int32, bool) {
	key := probeKey{pt: pt, mask: remMask}
	classes, memo := p.probes[key]
	var fresh map[int]*optimizer.Plan
	if !memo {
		fresh = p.runProbe(pt, remMask)
		classes = make([]probeClass, 0, len(fresh))
		for id, pl := range fresh {
			classes = append(classes, probeClass{joinID: int32(id), planID: -1, cost: pl.Cost})
		}
		p.probes[key] = classes
	}
	for i := range classes {
		c := &classes[i]
		if int(c.joinID) != joinID {
			continue
		}
		if !(c.cost < below) {
			break
		}
		if c.planID < 0 {
			if fresh == nil {
				fresh = p.runProbe(pt, remMask)
			}
			c.planID = p.S.AddPlan(fresh[joinID].Root)
		}
		return c.cost, c.planID, true
	}
	return 0, -1, false
}

// runProbe asks the optimizer for the cheapest plan per spill class of
// the remaining dimensions, costed at pt.
func (p *Planner) runProbe(pt int32, remMask uint16) map[int]*optimizer.Plan {
	qry := p.S.Query()
	remaining := map[int]bool{}
	for d, joinID := range qry.EPPs {
		if remMask&(1<<uint(d)) != 0 {
			remaining[joinID] = true
		}
	}
	return p.S.Optimizer().BestPerSpillClass(p.ev.Env(pt), remaining)
}

func sortExecs(execs []LeaderExec) {
	for i := 1; i < len(execs); i++ {
		for j := i; j > 0 && execs[j].Dim < execs[j-1].Dim; j-- {
			execs[j], execs[j-1] = execs[j-1], execs[j]
		}
	}
}

// GuaranteeRange returns AlignedBound's MSO bound range [2D+2, D²+3D].
func GuaranteeRange(d int) (lo, hi float64) {
	return float64(2*d + 2), float64(d*d + 3*d)
}

// Run executes the AlignedBound discovery (Algorithm 2) for one query
// instance. It returns the outcome and the maximum partition penalty π*
// encountered (the quantity of Table 4).
func Run(src ess.ContourSource, pl *Planner, eng discovery.Engine) (*discovery.Outcome, float64, error) {
	st := discovery.NewState(src.Geometry().D)
	m := src.NumContours()
	// Same trace-shape hint as SpillBound: roughly one execution per
	// contour plus the spill runs of the final unlearned dimensions.
	out := &discovery.Outcome{Steps: make([]discovery.Step, 0, m+src.Geometry().D)}
	maxPenalty := 0.0

	ci := 0
	for ci < m {
		if st.Remaining() == 1 {
			if err := bouquet.RunOneD(src, st, eng, ci, out); err != nil {
				return out, maxPenalty, err
			}
			return out, maxPenalty, nil
		}
		dec := pl.Decide(st.Learned, ci)
		if len(dec.Execs) == 0 {
			ci++ // nothing on this contour's slice: qa lies beyond
			continue
		}
		if dec.Penalty > maxPenalty {
			maxPenalty = dec.Penalty
		}
		progressed := false
		for _, ex := range dec.Execs {
			if aerr := discovery.AbortOf(eng); aerr != nil {
				return out, maxPenalty, aerr
			}
			c, done, learned := eng.ExecSpill(ex.PlanID, ex.Dim, ex.Budget)
			out.Add(discovery.Step{
				Contour: ci + 1, PlanID: ex.PlanID, Dim: ex.Dim,
				Budget: ex.Budget, Cost: c, Completed: done,
				Phase: discovery.PhaseSpill, LearnedIdx: learned,
			})
			if done {
				st.Learn(ex.Dim, learned)
				progressed = true
				break
			}
			st.Raise(ex.Dim, learned)
		}
		if !progressed {
			ci++
		}
	}
	return out, maxPenalty, fmt.Errorf("alignedbound: exhausted contours with %d epps unlearned (query %s)",
		st.Remaining(), src.Query().Name)
}
