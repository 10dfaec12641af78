package discovery

import (
	"repro/internal/ess"
	"repro/internal/exec"
)

// RealEngine drives discovery through the row-level executor instead of
// the cost model: budgeted executions really run over generated data,
// are really killed when the meter passes the budget, and selectivities
// are really observed by the operator monitors. This is the engine mode
// of the paper's wall-clock experiment (§6.3). It reads the contour
// surface only through ess.ContourSource, so it runs over the eager and
// the lazy provider alike.
//
// It is a FallibleEngine: executor failures (injected faults, panics,
// cancellations) surface as errors with the consumed cost, and a
// completed spill whose selectivity observation was dropped reports
// ErrObservationLost — wrap with NewResilient to drive the infallible
// algorithm interface.
type RealEngine struct {
	src ess.ContourSource
	ex  *exec.Executor
	ev  *ess.Evaluator
	// learned mirrors the discovery state so failed spills can be
	// converted into sound grid lower bounds via the (exact) cost model.
	learned []int
}

// NewRealEngine creates an engine over the contour source and executor;
// both must be built for the same query.
func NewRealEngine(src ess.ContourSource, ex *exec.Executor) *RealEngine {
	learned := make([]int, src.Geometry().D)
	for i := range learned {
		learned[i] = -1
	}
	return &RealEngine{src: src, ex: ex, ev: src.NewEvaluator(), learned: learned}
}

// ExecFull implements FallibleEngine with a real budgeted execution. On
// failure the cost the attempt consumed is still billed.
func (e *RealEngine) ExecFull(planID int32, budget float64) (float64, bool, error) {
	res, err := e.ex.Run(e.src.Plan(planID).Root, budget)
	if err != nil {
		return res.Cost, false, err
	}
	return res.Cost, res.Completed, nil
}

// ExecSpill implements FallibleEngine with a real spill-mode run. On
// completion the spilled join's monitored selectivity is snapped to the
// grid; a completed run whose observation was dropped reports
// ErrObservationLost (nothing learned — treating it as a kill that
// raises no bound is the only sound reading, since the subtree finished
// under budget). On a kill, the guaranteed learning bound is derived
// from the metered budget through the cost model (which the executor's
// meter matches by construction).
func (e *RealEngine) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int, error) {
	joinID := e.src.Query().EPPs[dim]
	res, err := e.ex.RunSpill(e.src.Plan(planID).Root, joinID, budget)
	if err != nil {
		return res.Cost, false, -1, err
	}
	g := e.src.Geometry()
	if res.Completed {
		sel, ok := res.JoinSel[joinID]
		if !ok {
			return res.Cost, false, -1, ErrObservationLost
		}
		idx := g.NearestIndex(sel)
		e.learned[dim] = idx
		return res.Cost, true, idx, nil
	}
	// Reference point: learned dims at their values, the rest at the
	// origin — the spill subtree's cost depends only on the learned
	// dimensions and dim itself.
	coords := make([]int, g.D)
	for d, v := range e.learned {
		if v >= 0 {
			coords[d] = v
		}
	}
	ref := int32(g.Linear(coords))
	idx := e.ev.MaxSelIndexWithin(planID, ref, dim, budget)
	return res.Cost, false, idx, nil
}

var _ FallibleEngine = (*RealEngine)(nil)
