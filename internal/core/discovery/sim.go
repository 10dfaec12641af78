package discovery

import (
	"context"
	"time"

	"repro/internal/ess"
	"repro/internal/faultinject"
)

// SimEngine is the cost-model-driven execution oracle: the true query
// location is a grid point, and budgeted executions succeed exactly when
// the cost model says the work fits the budget. Because the executor
// charges the same constants as the cost model, this is a faithful
// simulation of the engine under the paper's perfect-cost-model
// assumption (δ = 0 in §7).
type SimEngine struct {
	src ess.ContourSource
	qa  int32
	ev  *ess.Evaluator
}

// NewSimEngine returns an engine for the true location qa (linear grid
// index). Engines are not safe for concurrent use; create one per
// goroutine.
func NewSimEngine(src ess.ContourSource, qa int32) *SimEngine {
	return &SimEngine{src: src, qa: qa, ev: src.NewEvaluator()}
}

// NewSimStack assembles the cost-model-simulated engine stack for the
// instance at qa — the one stack every simulated discovery runs on
// (core.Run and the serving tier), so all
// strategies see identical plumbing and chaos runs replay bit for bit:
// the bare sim; with an injector armed, the fault-injecting engine
// behind the resilient retry driver; with a positive latency, the
// per-execution delay of a remote engine (inside the retry driver, so
// every retry pays it too); and with a non-nil ctx, the deadline guard
// of whichever wrapper is outermost. A nil ctx leaves the run unbounded.
func NewSimStack(ctx context.Context, src ess.ContourSource, qa int32, in *faultinject.Injector, latency time.Duration) Engine {
	sim := NewSimEngine(src, qa)
	if in != nil {
		var eng FallibleEngine = NewFaultySim(sim, in)
		if latency > 0 {
			eng = NewLatentFallible(eng, latency).WithContext(ctx)
		}
		return NewResilient(eng, DefaultRetryPolicy).WithJitter(in.Jitter).WithContext(ctx)
	}
	if latency > 0 {
		return NewLatent(sim, latency).WithContext(ctx)
	}
	if ctx != nil {
		return NewGuard(ctx, sim)
	}
	return sim
}

// QA returns the true location the engine simulates.
func (e *SimEngine) QA() int32 { return e.qa }

// ExecFull implements Engine: the plan completes iff its cost at qa is
// within budget.
func (e *SimEngine) ExecFull(planID int32, budget float64) (float64, bool) {
	c := e.ev.PlanCost(planID, e.qa)
	if c <= budget {
		return c, true
	}
	return budget, false
}

// ExecSpill implements Engine. The spill subtree's cost depends only on
// the spilled dimension and already-learned upstream selectivities (the
// spill-node identification invariant), so evaluating along the grid
// line through qa is exact.
func (e *SimEngine) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int) {
	sc := e.ev.SpillCost(planID, e.qa, dim)
	if sc <= budget {
		return sc, true, e.src.Geometry().Coord(int(e.qa), dim)
	}
	learned := e.ev.MaxSelIndexWithin(planID, e.qa, dim, budget)
	return budget, false, learned
}
