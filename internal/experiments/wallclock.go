package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table3WallClock reproduces the wall-clock experiment of §6.3
// (Table 3): SpillBound driven by real row-level executions over
// generated data for 4D_Q91, reporting the per-contour drill-down of
// plan executions and learned selectivities, plus the end-to-end
// comparison against the native optimizer, the oracle, and AlignedBound.
func (h *Harness) Table3WallClock() (*Report, error) {
	spec, err := workload.ByName("4D_Q91")
	if err != nil {
		return nil, err
	}
	q, err := spec.Load(h.Opts.Scale)
	if err != nil {
		return nil, err
	}
	store, err := datagen.Populate(q.Cat, datagen.Options{Seed: 2016, BuildIndexes: true})
	if err != nil {
		return nil, err
	}
	st, err := stats.FromData(q.Cat, store, 24)
	if err != nil {
		return nil, err
	}
	model := cost.NewModel(cost.DefaultParams())
	env := optimizer.BuildEnv(q, st)
	res := h.Opts.Res
	if res <= 0 {
		res = spec.Res
	}
	space, err := ess.Build(q, env, model, ess.Config{Res: res})
	if err != nil {
		return nil, err
	}
	// One executor serves every execution below, one after another, with
	// the harness's intra-query worker count: morsel parallelism cuts the
	// wall-clock of every real execution without moving a single metered
	// cost (the engine's merge contract).
	executor := exec.New(q, store, cost.DefaultParams()).WithWorkers(h.Opts.ExecWorkers)

	// Ground truth: measure the data's actual epp selectivities.
	trueSel := make([]float64, q.D())
	trueIdx := make([]int, q.D())
	for d, joinID := range q.EPPs {
		sel, err := stats.TrueJoinSel(store, q, q.Joins[joinID])
		if err != nil {
			return nil, err
		}
		trueSel[d] = sel
		trueIdx[d] = space.Grid.NearestIndex(sel)
	}
	qa := int32(space.Grid.Linear(trueIdx))

	// Oracle: the optimal plan at the true location, really executed.
	oracle, err := executor.Run(space.Plan(space.PointPlan[qa]).Root, 0)
	if err != nil {
		return nil, err
	}
	// Native optimizer: the plan picked at the statistics estimate.
	estIdx := make([]int, q.D())
	for d, joinID := range q.EPPs {
		estIdx[d] = space.Grid.NearestIndex(st.JoinSelEstimate(q, q.Joins[joinID]))
	}
	qe := int32(space.Grid.Linear(estIdx))
	native, err := executor.Run(space.Plan(space.PointPlan[qe]).Root, 0)
	if err != nil {
		return nil, err
	}
	// Adversarial estimate (what Eq. 2's MSO maximizes over): the POSP
	// plan that is worst at the true location, really executed but
	// capped at a large budget in case it is pathological.
	worstPID := int32(0)
	worstCost := 0.0
	{
		ev := space.NewEvaluator()
		for pid := range space.Plans() {
			if c := ev.PlanCost(int32(pid), qa); c > worstCost {
				worstCost, worstPID = c, int32(pid)
			}
		}
	}
	adversarial, err := executor.Run(space.Plan(worstPID).Root, oracle.Cost*1e6)
	if err != nil {
		return nil, err
	}

	// SpillBound and AlignedBound over real executions, behind the
	// resilient driver so executor faults degrade instead of aborting the
	// experiment.
	compiled, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	var outs [2]*discovery.Outcome
	for i, alg := range []core.Algorithm{core.SpillBound, core.AlignedBound} {
		outs[i], err = compiled.NewRun().DiscoverWith(alg,
			discovery.NewResilient(discovery.NewRealEngine(space, executor), discovery.DefaultRetryPolicy))
		if err != nil {
			return nil, err
		}
	}
	sbOut, abOut := outs[0], outs[1]

	rep := &Report{
		Title:  "Table 3 — SpillBound execution drill-down on 4D_Q91 (real executions)",
		Header: []string{"contour", "exec", "epp dim", "sel learnt", "cum. cost"},
	}
	cum := 0.0
	for _, stp := range sbOut.Steps {
		cum += stp.Cost
		execName := fmt.Sprintf("P%d", stp.PlanID)
		dim, learnt := "-", "-"
		if stp.Dim >= 0 {
			execName = fmt.Sprintf("p%d", stp.PlanID)
			dim = fmt.Sprintf("e%d", stp.Dim+1)
			if stp.LearnedIdx >= 0 {
				v := space.Grid.Vals[stp.LearnedIdx]
				if stp.Completed {
					learnt = fmt.Sprintf("%.3g%% (exact)", v*100)
				} else {
					learnt = fmt.Sprintf("> %.3g%%", v*100)
				}
			}
		}
		rep.AddRow(fmt.Sprintf("IC%d", stp.Contour), execName, dim, learnt, f1(cum))
	}

	so := func(c float64) string { return f2(c / oracle.Cost) }
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("true selectivities: %v (grid-snapped qa=%v)", fmtSels(trueSel), trueIdx),
		fmt.Sprintf("oracle cost %.1f (sub-opt 1.00)", oracle.Cost),
		fmt.Sprintf("native optimizer cost %.1f (sub-opt %s)", native.Cost, so(native.Cost)),
		fmt.Sprintf("native w/ adversarial estimate cost %.1f (sub-opt %s, completed=%v)",
			adversarial.Cost, so(adversarial.Cost), adversarial.Completed),
		fmt.Sprintf("SpillBound cost %.1f (sub-opt %s, %d executions)",
			sbOut.TotalCost, so(sbOut.TotalCost), len(sbOut.Steps)),
		fmt.Sprintf("AlignedBound cost %.1f (sub-opt %s, %d executions)",
			abOut.TotalCost, so(abOut.TotalCost), len(abOut.Steps)),
	)
	return rep, nil
}

func fmtSels(sels []float64) string {
	s := "["
	for i, v := range sels {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.2e", v)
	}
	return s + "]"
}
