package bouquet

import (
	"testing"

	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/testutil"
)

func TestGuarantee(t *testing.T) {
	red := &ess.Reduction{Lambda: 0.2, Rho: 5}
	if g := Guarantee(red); g != 4*1.2*5 {
		t.Fatalf("Guarantee = %v, want 24", g)
	}
}

func TestRunCompletesEverywhere(t *testing.T) {
	s := testutil.Space2D(t, 10)
	red := s.Reduce(0.2)
	bound := Guarantee(red)
	for qa := 0; qa < s.Grid.NumPoints(); qa++ {
		out, err := Run(s, red, discovery.NewSimEngine(s, int32(qa)))
		if err != nil {
			t.Fatalf("PB failed at qa=%d: %v", qa, err)
		}
		so := out.SubOpt(s.PointCost[qa])
		if so < 1-1e-9 {
			t.Fatalf("sub-opt %v < 1 at qa=%d", so, qa)
		}
		if so > bound+1e-9 {
			t.Fatalf("PB bound violated at qa=%d: %v > %v", qa, so, bound)
		}
	}
}

func TestRunStepsAreBouquetPhase(t *testing.T) {
	s := testutil.Space2D(t, 10)
	red := s.Reduce(0.2)
	qa := int32(s.Grid.Linear([]int{5, 7}))
	out, err := Run(s, red, discovery.NewSimEngine(s, qa))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range out.Steps {
		if step.Phase != discovery.PhaseBouquet {
			t.Errorf("unexpected phase %s", step.Phase)
		}
		if step.Dim != -1 {
			t.Error("PB never spills")
		}
	}
	if !out.Steps[len(out.Steps)-1].Completed {
		t.Error("last step must complete")
	}
}

func TestBudgetsInflatedByLambda(t *testing.T) {
	s := testutil.Space2D(t, 10)
	red := s.Reduce(0.2)
	qa := int32(s.Grid.Terminus())
	out, _ := Run(s, red, discovery.NewSimEngine(s, qa))
	for _, step := range out.Steps {
		want := s.ContourAt(nil, step.Contour-1).Cost * 1.2
		if step.Budget != want {
			t.Fatalf("budget %v, want (1+λ)·CC = %v", step.Budget, want)
		}
	}
}

func TestContourOrderAndExhaustion(t *testing.T) {
	s := testutil.Space2D(t, 10)
	red := s.Reduce(0.2)
	// Terminus forces the full climb through every contour.
	out, err := Run(s, red, discovery.NewSimEngine(s, int32(s.Grid.Terminus())))
	if err != nil {
		t.Fatal(err)
	}
	maxContour := 0
	for _, step := range out.Steps {
		if step.Contour < maxContour {
			t.Fatal("contours must be ascending")
		}
		maxContour = step.Contour
	}
	// The (1+λ) budget inflation can let a plan finish one contour
	// early, but never earlier than that.
	if maxContour < s.NumContours()-1 {
		t.Errorf("terminus should climb to contour %d or %d, got %d",
			s.NumContours()-1, s.NumContours(), maxContour)
	}
}

func TestRunOneDFromScratch(t *testing.T) {
	s := testutil.Space2D(t, 10)
	// Pretend dimension 0 is already learned at index 4; qa on that line.
	for _, yIdx := range []int{0, 3, 9} {
		qa := int32(s.Grid.Linear([]int{4, yIdx}))
		st := discovery.NewState(2)
		st.Learn(0, 4)
		out := &discovery.Outcome{}
		if err := RunOneD(s, st, discovery.NewSimEngine(s, qa), 0, out); err != nil {
			t.Fatalf("1-D phase failed at y=%d: %v", yIdx, err)
		}
		if !out.Completed {
			t.Fatal("1-D must complete")
		}
		for _, step := range out.Steps {
			if step.Phase != discovery.PhaseOneD {
				t.Error("phase must be 1d")
			}
		}
	}
}

func TestRunOneDRejectsWrongDims(t *testing.T) {
	s := testutil.Space2D(t, 8)
	st := discovery.NewState(2) // two unlearned dims
	out := &discovery.Outcome{}
	if err := RunOneD(s, st, discovery.NewSimEngine(s, 0), 0, out); err == nil {
		t.Fatal("1-D phase with 2 unlearned dims must error")
	}
}

// In the 1-D phase each contour issues at most one execution.
func TestRunOneDOnePlanPerContour(t *testing.T) {
	s := testutil.Space2D(t, 10)
	qa := int32(s.Grid.Linear([]int{4, 9}))
	st := discovery.NewState(2)
	st.Learn(0, 4)
	out := &discovery.Outcome{}
	if err := RunOneD(s, st, discovery.NewSimEngine(s, qa), 0, out); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, step := range out.Steps {
		seen[step.Contour]++
		if seen[step.Contour] > 1 {
			t.Fatal("1-D phase must execute at most one plan per contour")
		}
	}
}
