package discovery

import "repro/internal/ess"

// NoisyEngine simulates an engine whose true execution costs deviate
// from the cost model by a bounded multiplicative error — the δ-factor
// setting of the paper's deployment discussion (§7). With modeling
// errors within (1±δ) and kill limits inflated by (1+δ) (how a
// deployment compensates for known model slack), the MSO guarantees
// carry through inflated by ≈ (1+δ)².
type NoisyEngine struct {
	src   ess.ContourSource
	qa    int32
	ev    *ess.Evaluator
	delta float64
	seed  uint64
}

// NewNoisyEngine creates an engine for true location qa with relative
// cost error bounded by delta (0 ≤ delta < 1). The error is a
// deterministic function of (seed, plan), so runs are reproducible.
func NewNoisyEngine(src ess.ContourSource, qa int32, delta float64, seed uint64) *NoisyEngine {
	if delta < 0 || delta >= 1 {
		panic("discovery: delta must be in [0, 1)")
	}
	return &NoisyEngine{src: src, qa: qa, ev: src.NewEvaluator(), delta: delta, seed: seed}
}

// factor returns the deterministic per-plan cost error in [1−δ, 1+δ].
func (e *NoisyEngine) factor(planID int32) float64 {
	x := e.seed ^ (uint64(planID)+1)*0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return 1 - e.delta + 2*e.delta*u
}

// TrueOptCost returns the noisy engine's actual cost of the optimal plan
// at the true location — the denominator a fair sub-optimality
// computation should use.
func (e *NoisyEngine) TrueOptCost() float64 {
	return e.src.CostAt(e.qa) * e.factor(e.src.PlanAt(e.qa))
}

// ExecFull implements Engine: the plan's true cost is its modeled cost
// scaled by the plan's error factor; the kill limit is (1+δ)·budget.
func (e *NoisyEngine) ExecFull(planID int32, budget float64) (float64, bool) {
	trueCost := e.ev.PlanCost(planID, e.qa) * e.factor(planID)
	limit := budget * (1 + e.delta)
	if trueCost <= limit {
		return trueCost, true
	}
	return limit, false
}

// ExecSpill implements Engine. Completion follows the noisy cost
// against the inflated limit; Lemma 3.1's guarantee survives because a
// subtree whose modeled cost fits the raw budget has true cost at most
// (1+δ)·budget = the limit. On failure, the learning bound is derived
// from the raw budget: true cost above the limit implies modeled cost
// above the budget, so the model's crossing index stays a sound
// exclusive lower bound.
func (e *NoisyEngine) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int) {
	trueCost := e.ev.SpillCost(planID, e.qa, dim) * e.factor(planID)
	limit := budget * (1 + e.delta)
	if trueCost <= limit {
		return trueCost, true, e.src.Geometry().Coord(int(e.qa), dim)
	}
	learned := e.ev.MaxSelIndexWithin(planID, e.qa, dim, budget)
	return limit, false, learned
}

var _ Engine = (*NoisyEngine)(nil)
