package core

import (
	"math"
	"testing"

	"repro/internal/ess"
	"repro/internal/mso"
	"repro/internal/testutil"
)

// compileSpace compiles the test space with default options.
func compileSpace(t *testing.T, s *ess.Space) *Compiled {
	t.Helper()
	c, err := Compile(s, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSessionGuarantees(t *testing.T) {
	sess := compileSpace(t, testutil.Space2D(t, 10))
	sb, err := sess.Guarantee(SpillBound)
	if err != nil || sb != 10 {
		t.Fatalf("SB guarantee = %v, %v", sb, err)
	}
	pb, err := sess.Guarantee(PlanBouquet)
	if err != nil || pb <= 0 {
		t.Fatalf("PB guarantee = %v, %v", pb, err)
	}
	ab, err := sess.Guarantee(AlignedBound)
	if err != nil || ab != 10 {
		t.Fatalf("AB guarantee (upper) = %v, %v", ab, err)
	}
	if _, err := sess.Guarantee("zzz"); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestSessionDiscoverAllAlgorithms(t *testing.T) {
	s := testutil.Space2D(t, 10)
	sess := compileSpace(t, s)
	qa := int32(s.Grid.Linear([]int{6, 5}))
	for _, alg := range []Algorithm{PlanBouquet, SpillBound, AlignedBound} {
		out, err := sess.NewRun().Discover(alg, qa)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !out.Completed {
			t.Fatalf("%s: not completed", alg)
		}
		g, _ := sess.Guarantee(alg)
		if so := out.SubOpt(s.PointCost[qa]); so > g*3 {
			t.Errorf("%s: sub-opt %v far above guarantee %v", alg, so, g)
		}
	}
	if _, err := sess.NewRun().Discover("zzz", qa); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestSessionMSOOrdering(t *testing.T) {
	sess := compileSpace(t, testutil.Space2D(t, 10))
	pb, err := sess.MSO(PlanBouquet, mso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sess.MSO(SpillBound, mso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := sess.MSO(AlignedBound, mso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	native := sess.NativeWorstCaseMSO(mso.Options{})
	if native.MSO < sb.MSO {
		t.Errorf("native (%v) should dominate SB (%v)", native.MSO, sb.MSO)
	}
	if sb.MSO > pb.MSO*1.05 {
		t.Errorf("SB MSOe (%v) should not exceed PB's (%v)", sb.MSO, pb.MSO)
	}
	if ab.MSO <= 0 {
		t.Error("AB MSOe must be positive")
	}
	if ab.MaxAlignPenalty < 1 {
		t.Errorf("MaxAlignPenalty = %v after AB sweep", ab.MaxAlignPenalty)
	}
}

func TestCompileLambda(t *testing.T) {
	s := testutil.Space2D(t, 8)
	c, err := Compile(s, CompileOptions{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if red := c.Reduction(); red.Lambda != 0.5 || c.Lambda != 0.5 {
		t.Fatalf("lambda = %v (artifact %v)", red.Lambda, c.Lambda)
	}
	if c := compileSpace(t, s); c.Lambda != DefaultLambda {
		t.Fatalf("zero Lambda compiled as %v, want DefaultLambda", c.Lambda)
	}
	for _, bad := range []float64{-0.5, math.NaN()} {
		if _, err := Compile(s, CompileOptions{Lambda: bad}); err == nil {
			t.Fatalf("lambda %v should be rejected", bad)
		}
	}
}

func TestMaxPenaltyZeroBeforeABRuns(t *testing.T) {
	r := compileSpace(t, testutil.Space2D(t, 8)).NewRun()
	if r.MaxPenalty() != 0 {
		t.Fatal("MaxPenalty should start at 0")
	}
}
