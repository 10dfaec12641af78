package discovery

import (
	"testing"

	"repro/internal/testutil"
)

func TestOutcomeAddAndSubOpt(t *testing.T) {
	o := &Outcome{}
	o.Add(Step{Cost: 10})
	o.Add(Step{Cost: 5})
	if o.TotalCost != 15 {
		t.Fatalf("TotalCost = %v", o.TotalCost)
	}
	if o.SubOpt(5) != 3 {
		t.Fatalf("SubOpt = %v, want 3", o.SubOpt(5))
	}
	if o.SubOpt(0) != 0 {
		t.Fatal("SubOpt with zero opt should be 0")
	}
	if len(o.Steps) != 2 {
		t.Fatal("steps not recorded")
	}
}

func TestStateBasics(t *testing.T) {
	st := NewState(3)
	if st.Remaining() != 3 || st.RemMask() != 0b111 {
		t.Fatal("fresh state wrong")
	}
	st.Learn(1, 4)
	if st.Remaining() != 2 || st.RemMask() != 0b101 {
		t.Fatalf("after learn: rem=%d mask=%b", st.Remaining(), st.RemMask())
	}
	dims := st.RemainingDims()
	if len(dims) != 2 || dims[0] != 0 || dims[1] != 2 {
		t.Fatalf("RemainingDims = %v", dims)
	}
	st.Raise(0, 3)
	st.Raise(0, 2) // lower raise is a no-op
	if st.Lower[0] != 3 {
		t.Fatalf("Lower[0] = %d", st.Lower[0])
	}
}

func TestStateLearnTwicePanics(t *testing.T) {
	st := NewState(2)
	st.Learn(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double learn should panic")
		}
	}()
	st.Learn(0, 2)
}

func TestStateCompatible(t *testing.T) {
	s := testutil.Space2D(t, 8)
	g := s.Grid
	st := NewState(2)
	st.Learn(0, 3)
	st.Raise(1, 2)

	ok := g.Linear([]int{3, 5})
	if !st.Compatible(g, int32(ok)) {
		t.Error("matching point should be compatible")
	}
	wrongLearned := g.Linear([]int{4, 5})
	if st.Compatible(g, int32(wrongLearned)) {
		t.Error("learned-dim mismatch should be incompatible")
	}
	belowLower := g.Linear([]int{3, 2})
	if st.Compatible(g, int32(belowLower)) {
		t.Error("point at/below the exclusive lower bound should be incompatible")
	}
	justAbove := g.Linear([]int{3, 3})
	if !st.Compatible(g, int32(justAbove)) {
		t.Error("first index above the bound should be compatible")
	}
}

func TestSimEngineExecFull(t *testing.T) {
	s := testutil.Space2D(t, 8)
	qa := int32(s.Grid.Linear([]int{4, 4}))
	eng := NewSimEngine(s, qa)
	if eng.QA() != qa {
		t.Fatal("QA accessor")
	}
	pid := s.PointPlan[qa]
	opt := s.PointCost[qa]
	// Generous budget: completes at actual cost.
	c, done := eng.ExecFull(pid, opt*2)
	if !done || c != opt {
		t.Fatalf("ExecFull generous = (%v,%v), want (%v,true)", c, done, opt)
	}
	// Tight budget: killed at budget.
	c, done = eng.ExecFull(pid, opt/2)
	if done || c != opt/2 {
		t.Fatalf("ExecFull tight = (%v,%v), want budget spent", c, done)
	}
}

func TestSimEngineExecSpillCompletion(t *testing.T) {
	s := testutil.Space2D(t, 8)
	qa := int32(s.Grid.Linear([]int{3, 5}))
	eng := NewSimEngine(s, qa)
	pid := s.PointPlan[qa]
	dim := s.SpillDim(pid, 0b11)
	// Huge budget: learns the exact coordinate.
	c, done, idx := eng.ExecSpill(pid, dim, s.Cmax*10)
	if !done {
		t.Fatal("huge budget spill must complete")
	}
	if idx != s.Grid.Coord(int(qa), dim) {
		t.Fatalf("learned idx %d != qa coord %d", idx, s.Grid.Coord(int(qa), dim))
	}
	if c <= 0 || c > s.Cmax*10 {
		t.Fatalf("cost %v implausible", c)
	}
}

func TestSimEngineExecSpillFailure(t *testing.T) {
	s := testutil.Space2D(t, 10)
	// qa at the terminus: tiny budgets can't complete spills.
	qa := int32(s.Grid.Terminus())
	eng := NewSimEngine(s, qa)
	pid := s.PointPlan[s.ContourAt(nil, 0).Points[0]] // cheapest plan
	dim := s.SpillDim(pid, 0b11)
	budget := s.Cmin
	c, done, idx := eng.ExecSpill(pid, dim, budget)
	if done {
		t.Fatal("tiny budget at terminus should not complete")
	}
	if c != budget {
		t.Fatalf("failed spill must cost the full budget, got %v", c)
	}
	if idx >= s.Grid.Res-1 {
		t.Fatal("failure cannot have learned the full range")
	}
	// Learned bound must be sound: the spill cost with dim set one step
	// above the learned index must exceed the budget.
	if idx+1 < s.Grid.Res {
		coords := s.Grid.Coords(int(qa), nil)
		coords[dim] = idx + 1
		above := int32(s.Grid.Linear(coords))
		ev := s.NewEvaluator()
		if got := ev.SpillCost(pid, above, dim); got <= budget {
			t.Fatalf("spill cost %v at idx+1 should exceed budget %v", got, budget)
		}
	}
}
