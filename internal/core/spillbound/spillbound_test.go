package spillbound

import (
	"testing"

	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/testutil"
)

func TestGuarantee(t *testing.T) {
	if Guarantee(2) != 10 {
		t.Errorf("2D guarantee = %v, want 10 (Theorem 4.2)", Guarantee(2))
	}
	if Guarantee(6) != 54 {
		t.Errorf("6D guarantee = %v, want 54", Guarantee(6))
	}
}

func runAt(t *testing.T, s *ess.Space, qa int32) *discovery.Outcome {
	t.Helper()
	out, err := Run(s, discovery.NewSimEngine(s, qa))
	if err != nil {
		t.Fatalf("SpillBound failed at qa=%d: %v", qa, err)
	}
	if !out.Completed {
		t.Fatalf("not completed at qa=%d", qa)
	}
	return out
}

func TestRunCompletesEverywhere2D(t *testing.T) {
	s := testutil.Space2D(t, 10)
	for qa := 0; qa < s.Grid.NumPoints(); qa++ {
		out := runAt(t, s, int32(qa))
		so := out.SubOpt(s.PointCost[qa])
		if so < 1-1e-9 {
			t.Fatalf("sub-optimality %v < 1 at qa=%d", so, qa)
		}
		if so > Guarantee(2)+1e-9 {
			t.Fatalf("MSO bound violated at qa=%d: %v > %v", qa, so, Guarantee(2))
		}
	}
}

func TestRunCompletesEverywhere3D(t *testing.T) {
	s := testutil.Space3D(t, 6)
	for qa := 0; qa < s.Grid.NumPoints(); qa++ {
		out := runAt(t, s, int32(qa))
		so := out.SubOpt(s.PointCost[qa])
		if so > Guarantee(3)+1e-9 {
			t.Fatalf("MSO bound violated at qa=%d: %v > %v", qa, so, Guarantee(3))
		}
	}
}

func TestRunAtOrigin(t *testing.T) {
	s := testutil.Space2D(t, 10)
	out := runAt(t, s, int32(s.Grid.Origin()))
	// Origin is the cheapest location; discovery should need few steps
	// and stay within a small multiple of Cmin.
	if out.TotalCost > 5*s.Cmin {
		t.Errorf("origin discovery cost %v too high vs Cmin %v", out.TotalCost, s.Cmin)
	}
}

func TestRunAtTerminus(t *testing.T) {
	s := testutil.Space2D(t, 10)
	out := runAt(t, s, int32(s.Grid.Terminus()))
	if out.SubOpt(s.Cmax) > Guarantee(2) {
		t.Errorf("terminus sub-opt %v exceeds guarantee", out.SubOpt(s.Cmax))
	}
}

func TestTraceStructure(t *testing.T) {
	s := testutil.Space2D(t, 10)
	qa := int32(s.Grid.Linear([]int{6, 4}))
	out := runAt(t, s, qa)

	sawOneD := false
	prevContour := 0
	for _, step := range out.Steps {
		if step.Contour < prevContour {
			t.Error("contour indexes must be non-decreasing")
		}
		prevContour = step.Contour
		switch step.Phase {
		case discovery.PhaseSpill:
			if step.Dim < 0 || step.Dim >= 2 {
				t.Errorf("spill step with dim %d", step.Dim)
			}
			if sawOneD {
				t.Error("spill step after 1-D phase began")
			}
		case discovery.PhaseOneD:
			sawOneD = true
			if step.Dim != -1 {
				t.Error("1-D steps are full executions")
			}
		default:
			t.Errorf("unexpected phase %s", step.Phase)
		}
		if step.Cost > step.Budget+1e-9 {
			t.Error("cost must not exceed budget")
		}
		if !step.Completed && step.Cost != step.Budget {
			t.Error("killed executions must spend the whole budget")
		}
	}
	last := out.Steps[len(out.Steps)-1]
	if !last.Completed {
		t.Error("final step must complete the query")
	}
	if !sawOneD {
		t.Error("2-D discovery must end in the 1-D bouquet phase")
	}
}

// CDI property: within one contour, at most |EPP| spill executions
// between learning events or contour jumps (Lemma 4.4's fresh-execution
// bound, checked behaviorally on traces).
func TestCDIExecutionBound(t *testing.T) {
	s := testutil.Space3D(t, 6)
	d := s.Grid.D
	for qa := 0; qa < s.Grid.NumPoints(); qa += 3 {
		out := runAt(t, s, int32(qa))
		perContourSpills := map[int]int{}
		for _, step := range out.Steps {
			if step.Phase == discovery.PhaseSpill {
				perContourSpills[step.Contour]++
			}
		}
		// Each contour sees at most D fresh + D(D-1)/2 repeats in the
		// worst case; behaviorally we check the hard cap D + D(D-1)/2.
		cap := d + d*(d-1)/2
		for c, n := range perContourSpills {
			if n > cap {
				t.Fatalf("qa=%d contour %d had %d spill executions (cap %d)", qa, c, n, cap)
			}
		}
	}
}

func TestChooseSpillPlansCoverDims(t *testing.T) {
	s := testutil.Space2D(t, 10)
	st := discovery.NewState(2)
	// Mid contour should have plans spilling on at least one dimension,
	// and every returned exec must be consistent.
	ic := s.ContourAt(nil, s.NumContours()/2)
	execs := ChooseSpillPlans(s, st, ic)
	if len(execs) == 0 {
		t.Fatal("no spill plans chosen on a mid contour")
	}
	seen := map[int]bool{}
	for _, ex := range execs {
		if seen[ex.Dim] {
			t.Error("duplicate dimension in spill plan choice")
		}
		seen[ex.Dim] = true
		if s.PointPlan[ex.Point] != ex.PlanID {
			t.Error("plan/point mismatch")
		}
		if got := s.SpillDim(ex.PlanID, st.RemMask()); got != ex.Dim {
			t.Errorf("chosen plan spills on %d, not %d", got, ex.Dim)
		}
	}
}

// q^j_max maximality: no compatible contour point whose plan spills on j
// may have a larger j coordinate than the chosen one.
func TestChooseSpillPlansMaximality(t *testing.T) {
	s := testutil.Space2D(t, 12)
	st := discovery.NewState(2)
	for ci := range s.NumContours() {
		ic := s.ContourAt(nil, ci)
		execs := ChooseSpillPlans(s, st, ic)
		for _, ex := range execs {
			for _, pt := range ic.Points {
				if s.SpillDim(s.PointPlan[pt], st.RemMask()) != ex.Dim {
					continue
				}
				if s.Grid.Coord(int(pt), ex.Dim) > s.Grid.Coord(int(ex.Point), ex.Dim) {
					t.Fatalf("contour %d: point %d beats chosen q^%d_max", ci, pt, ex.Dim)
				}
			}
		}
	}
}

// Half-space pruning soundness: replaying the trace, every learned
// bound must be consistent with the true location.
func TestLearnedBoundsSound(t *testing.T) {
	s := testutil.Space2D(t, 12)
	for _, coords := range [][]int{{2, 9}, {9, 2}, {5, 5}, {0, 11}, {11, 11}} {
		qa := int32(s.Grid.Linear(coords))
		out := runAt(t, s, qa)
		for _, step := range out.Steps {
			if step.Phase != discovery.PhaseSpill {
				continue
			}
			trueCoord := s.Grid.Coord(int(qa), step.Dim)
			if step.Completed {
				if step.LearnedIdx != trueCoord {
					t.Fatalf("completed spill learned %d, truth %d", step.LearnedIdx, trueCoord)
				}
			} else if step.LearnedIdx >= trueCoord {
				t.Fatalf("failed spill claimed bound %d ≥ truth %d", step.LearnedIdx, trueCoord)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	s := testutil.Space2D(t, 10)
	qa := int32(s.Grid.Linear([]int{7, 3}))
	a := runAt(t, s, qa)
	b := runAt(t, s, qa)
	if a.TotalCost != b.TotalCost || len(a.Steps) != len(b.Steps) {
		t.Fatal("SpillBound must be deterministic")
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatalf("step %d differs between identical runs", i)
		}
	}
}
