package main

import (
	"time"

	"repro/internal/core/discovery"
	"repro/internal/ess"
)

// Span names the decorators emit.
const (
	spanContourAt  = "ess.contour_at"
	spanSimExec    = "discovery.sim_exec"
	spanExecFull   = "exec.full"
	spanExecSpill  = "exec.spill"
	spanExecKilled = "exec.killed"
	spanDiscover   = "core.discover"
)

// timedSource times the three accessors discovery reads contours
// through. It embeds the interface and overrides only those three, so
// an edit to any other ContourSource method does not touch it. Handed
// to core.CompileSource, it sits under everything a replayed discovery
// does; outside a detailed traced request it passes straight through.
type timedSource struct {
	ess.ContourSource
	tr *tracer
}

func (s *timedSource) ContourAt(learned []int, ci int) *ess.Contour {
	if !s.tr.detailed() {
		return s.ContourSource.ContourAt(learned, ci)
	}
	id := s.tr.begin(spanContourAt)
	c := s.ContourSource.ContourAt(learned, ci)
	s.tr.end(id)
	return c
}

func (s *timedSource) CostAt(pt int32) float64 {
	if !s.tr.detailed() {
		return s.ContourSource.CostAt(pt)
	}
	t0 := time.Now()
	c := s.ContourSource.CostAt(pt)
	s.tr.lookup(lookupCostAt, int64(time.Since(t0)))
	return c
}

func (s *timedSource) PlanAt(pt int32) int32 {
	if !s.tr.detailed() {
		return s.ContourSource.PlanAt(pt)
	}
	t0 := time.Now()
	p := s.ContourSource.PlanAt(pt)
	s.tr.lookup(lookupPlanAt, int64(time.Since(t0)))
	return p
}

// timedSim times every budgeted execution of the cost-model engine.
type timedSim struct {
	eng discovery.Engine
	tr  *tracer
}

func (e *timedSim) ExecFull(planID int32, budget float64) (float64, bool) {
	if !e.tr.detailed() {
		return e.eng.ExecFull(planID, budget)
	}
	id := e.tr.begin(spanSimExec)
	c, ok := e.eng.ExecFull(planID, budget)
	e.tr.end(id).Cost = c
	return c, ok
}

func (e *timedSim) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int) {
	if !e.tr.detailed() {
		return e.eng.ExecSpill(planID, dim, budget)
	}
	id := e.tr.begin(spanSimExec)
	c, ok, idx := e.eng.ExecSpill(planID, dim, budget)
	e.tr.end(id).Cost = c
	return c, ok, idx
}

// timedReal times every real execution with the cost it metered, named
// by call class: a full or spill run that completed, or a run of either
// kind the budget killed.
type timedReal struct {
	eng discovery.FallibleEngine
	tr  *tracer
}

func (e *timedReal) ExecFull(planID int32, budget float64) (float64, bool, error) {
	id := e.tr.begin(spanExecFull)
	c, ok, err := e.eng.ExecFull(planID, budget)
	e.close(id, c, ok)
	return c, ok, err
}

func (e *timedReal) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int, error) {
	id := e.tr.begin(spanExecSpill)
	c, ok, idx, err := e.eng.ExecSpill(planID, dim, budget)
	e.close(id, c, ok)
	return c, ok, idx, err
}

func (e *timedReal) close(id int32, cost float64, completed bool) {
	sp := e.tr.end(id)
	sp.Cost = cost
	if !completed {
		sp.Name = spanExecKilled
	}
}
