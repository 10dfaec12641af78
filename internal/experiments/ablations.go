package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/core/bouquet"
	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/ess"
	"repro/internal/mso"
	"repro/internal/workload"
)

// AblationCostRatio studies the contour cost ratio (the paper's remark
// after Theorem 4.5: doubling is not ideal for SpillBound; e.g. 1.8
// improves the 2D guarantee from 10 to 9.9).
func (h *Harness) AblationCostRatio() (*Report, error) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation — contour cost ratio (2D_Q91, SpillBound)",
		Header: []string{"ratio", "contours", "SB MSOe", "SB ASO"},
	}
	for _, ratio := range []float64{1.5, 1.8, 2.0, 2.5, 3.0} {
		s, err := spec.SpaceWith(h.Opts.Scale, ess.Config{Res: h.Opts.Res, CostRatio: ratio})
		if err != nil {
			return nil, err
		}
		res, err := mso.Sweep(s, func(qa int32) (*discovery.Outcome, error) {
			return spillbound.Run(s, discovery.NewSimEngine(s, qa))
		}, mso.Options{})
		if err != nil {
			return nil, err
		}
		rep.AddRow(f2(ratio), fmt.Sprintf("%d", s.NumContours()), f2(res.MSO), f2(res.ASO))
	}
	return rep, nil
}

// AblationAnorexicLambda studies PlanBouquet's reduction threshold λ:
// larger λ shrinks ρ_red (tighter guarantee) but inflates budgets.
func (h *Harness) AblationAnorexicLambda() (*Report, error) {
	spec, err := workload.ByName("4D_Q91")
	if err != nil {
		return nil, err
	}
	s, err := h.space(spec)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation — anorexic reduction λ (4D_Q91, PlanBouquet)",
		Header: []string{"lambda", "rho_red", "PB MSOg", "PB MSOe", "PB ASO"},
	}
	rep.AddRow("unreduced", fmt.Sprintf("%d", s.RhoUnreduced()),
		f1(4*float64(s.RhoUnreduced())), "-", "-")
	for _, lambda := range []float64{0, 0.1, 0.2, 0.5} {
		red := s.Reduce(lambda)
		res, err := mso.Sweep(s, func(qa int32) (*discovery.Outcome, error) {
			return bouquet.Run(s, red, discovery.NewSimEngine(s, qa))
		}, mso.Options{})
		if err != nil {
			return nil, err
		}
		rep.AddRow(f2(lambda), fmt.Sprintf("%d", red.Rho),
			f1(bouquet.Guarantee(red)), f2(res.MSO), f2(res.ASO))
	}
	return rep, nil
}

// AblationGridResolution studies the sensitivity of the empirical MSO to
// the ESS discretization.
func (h *Harness) AblationGridResolution() (*Report, error) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation — grid resolution (2D_Q91, SpillBound)",
		Header: []string{"res/dim", "locations", "plans", "SB MSOe", "SB ASO"},
	}
	for _, res := range []int{8, 12, 16, 24, 32} {
		s, err := spec.SpaceWith(h.Opts.Scale, ess.Config{Res: res, CostRatio: 2.0})
		if err != nil {
			return nil, err
		}
		r, err := mso.Sweep(s, func(qa int32) (*discovery.Outcome, error) {
			return spillbound.Run(s, discovery.NewSimEngine(s, qa))
		}, mso.Options{})
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprintf("%d", res), fmt.Sprintf("%d", s.Grid.NumPoints()),
			fmt.Sprintf("%d", s.NumPlans()), f2(r.MSO), f2(r.ASO))
	}
	return rep, nil
}

// AblationOptimizerProbes studies AlignedBound with and without the
// per-spill-class optimizer hook (§6.1's engine feature): without it,
// replacements come only from the POSP pool.
func (h *Harness) AblationOptimizerProbes() (*Report, error) {
	spec, err := workload.ByName("4D_Q91")
	if err != nil {
		return nil, err
	}
	s, err := h.space(spec)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation — AlignedBound optimizer probes (4D_Q91)",
		Header: []string{"probes", "AB MSOe", "AB ASO"},
	}
	for _, use := range []bool{true, false} {
		c, err := core.Compile(s, core.CompileOptions{Lambda: h.Opts.Lambda})
		if err != nil {
			return nil, err
		}
		c.Planner().UseOptimizer = use
		res, err := c.MSO(core.AlignedBound, mso.Options{})
		if err != nil {
			return nil, err
		}
		label := "pool only"
		if use {
			label = "pool + optimizer"
		}
		rep.AddRow(label, f2(res.MSO), f2(res.ASO))
	}
	return rep, nil
}

// AblationOneDEndgame studies the 1-D terminal phase: the paper's choice
// of regular (non-spill) execution versus continuing to spill. Spilling
// in 1-D learns the final selectivity exactly but must then pay one more
// full execution, weakening the bound ([14], §4.1).
func (h *Harness) AblationOneDEndgame() (*Report, error) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		return nil, err
	}
	s, err := h.space(spec)
	if err != nil {
		return nil, err
	}
	regular, err := mso.Sweep(s, func(qa int32) (*discovery.Outcome, error) {
		return spillbound.Run(s, discovery.NewSimEngine(s, qa))
	}, mso.Options{})
	if err != nil {
		return nil, err
	}
	spilling, err := mso.Sweep(s, func(qa int32) (*discovery.Outcome, error) {
		return runSpillOneD(s, qa)
	}, mso.Options{})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation — 1-D endgame mode (2D_Q91, SpillBound)",
		Header: []string{"endgame", "MSOe", "ASO"},
	}
	rep.AddRow("regular execution (paper)", f2(regular.MSO), f2(regular.ASO))
	rep.AddRow("spill execution", f2(spilling.MSO), f2(spilling.ASO))
	return rep, nil
}

// runSpillOneD is the endgame variant that keeps spilling in the 1-D
// phase: it learns the last selectivity exactly through spill
// executions, then pays a final full execution of the now-known optimal
// plan.
func runSpillOneD(s *ess.Space, qa int32) (*discovery.Outcome, error) {
	eng := discovery.NewSimEngine(s, qa)
	out := &discovery.Outcome{}
	st := discovery.NewState(s.Grid.D)
	m := s.NumContours()

	ci := 0
	for ci < m && !out.Completed {
		ic := s.ContourAt(st.Learned, ci)
		if st.Remaining() == 1 {
			dim := st.RemainingDims()[0]
			// Spill the line's plan; on exact learning, run the optimal
			// plan at the fully known location.
			best, bestCoord := int32(-1), -1
			for _, pt := range ic.Points {
				if !st.Compatible(s.Grid, pt) {
					continue
				}
				if c := s.Grid.Coord(int(pt), dim); c > bestCoord {
					best, bestCoord = pt, c
				}
			}
			if best < 0 {
				ci++
				continue
			}
			pid := s.PointPlan[best]
			c, done, learned := eng.ExecSpill(pid, dim, ic.Cost)
			out.Add(discovery.Step{Contour: ci + 1, PlanID: pid, Dim: dim,
				Budget: ic.Cost, Cost: c, Completed: done,
				Phase: discovery.PhaseSpill, LearnedIdx: learned})
			if done {
				st.Learn(dim, learned)
				final := int32(s.Grid.Linear(st.Learned))
				fp := s.PointPlan[final]
				fc, fdone := eng.ExecFull(fp, s.PointCost[final])
				out.Add(discovery.Step{Contour: ci + 1, PlanID: fp, Dim: -1,
					Budget: s.PointCost[final], Cost: fc, Completed: fdone,
					Phase: discovery.PhaseOneD, LearnedIdx: -1})
				if !fdone {
					return out, fmt.Errorf("ablation: final execution failed")
				}
				out.Completed = true
				return out, nil
			}
			st.Raise(dim, learned)
			ci++
			continue
		}
		execs := spillbound.ChooseSpillPlans(s, st, ic)
		progressed := false
		for _, ex := range execs {
			c, done, learned := eng.ExecSpill(ex.PlanID, ex.Dim, ic.Cost)
			out.Add(discovery.Step{Contour: ci + 1, PlanID: ex.PlanID, Dim: ex.Dim,
				Budget: ic.Cost, Cost: c, Completed: done,
				Phase: discovery.PhaseSpill, LearnedIdx: learned})
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
	if !out.Completed {
		return out, fmt.Errorf("ablation: discovery did not complete")
	}
	return out, nil
}
