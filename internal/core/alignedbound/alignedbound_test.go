package alignedbound

import (
	"math"
	"testing"

	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/ess"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func TestPartitionsCounts(t *testing.T) {
	// Bell numbers: 1, 1, 2, 5, 15, 52, 203.
	for n, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203} {
		elems := make([]int, n)
		for i := range elems {
			elems[i] = i
		}
		if got := len(Partitions(elems)); got != want {
			t.Errorf("Bell(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPartitionsCoverAndDisjoint(t *testing.T) {
	elems := []int{0, 1, 2, 3}
	for _, parts := range Partitions(elems) {
		seen := map[int]int{}
		for _, part := range parts {
			if len(part) == 0 {
				t.Fatal("empty part")
			}
			for _, e := range part {
				seen[e]++
			}
		}
		if len(seen) != 4 {
			t.Fatalf("partition misses elements: %v", parts)
		}
		for e, n := range seen {
			if n != 1 {
				t.Fatalf("element %d appears %d times", e, n)
			}
		}
	}
}

func TestGuaranteeRange(t *testing.T) {
	lo, hi := GuaranteeRange(4)
	if lo != 10 || hi != 28 {
		t.Fatalf("range = [%v,%v], want [10,28]", lo, hi)
	}
}

func runAt(t *testing.T, s *ess.Space, pl *Planner, qa int32) (*discovery.Outcome, float64) {
	t.Helper()
	out, pen, err := Run(s, pl, discovery.NewSimEngine(s, qa))
	if err != nil {
		t.Fatalf("AlignedBound failed at qa=%d: %v", qa, err)
	}
	if !out.Completed {
		t.Fatalf("not completed at qa=%d", qa)
	}
	return out, pen
}

func TestRunCompletesEverywhere2D(t *testing.T) {
	s := testutil.Space2D(t, 10)
	pl := NewPlanner(s)
	_, hi := GuaranteeRange(2)
	for qa := 0; qa < s.Grid.NumPoints(); qa++ {
		out, _ := runAt(t, s, pl, int32(qa))
		so := out.SubOpt(s.PointCost[qa])
		if so < 1-1e-9 {
			t.Fatalf("sub-opt %v < 1 at qa=%d", so, qa)
		}
		// The quadratic bound must be retained even when inducing
		// alignment (§5.3); allow the penalty slack the paper proves.
		if so > hi*3 {
			t.Fatalf("AB wildly above quadratic bound at qa=%d: %v", qa, so)
		}
	}
}

func TestRunCompletesEverywhere3D(t *testing.T) {
	s := testutil.Space3D(t, 6)
	pl := NewPlanner(s)
	for qa := 0; qa < s.Grid.NumPoints(); qa++ {
		runAt(t, s, pl, int32(qa))
	}
}

// AB's headline property: empirical MSO at or below SpillBound's on the
// same space, for the worst location (alignment can only save budgeted
// executions).
func TestABNotWorseThanSBOnWorstCase(t *testing.T) {
	s := testutil.Space2D(t, 10)
	pl := NewPlanner(s)
	worstSB, worstAB := 0.0, 0.0
	for qa := 0; qa < s.Grid.NumPoints(); qa++ {
		sbOut, err := spillbound.Run(s, discovery.NewSimEngine(s, int32(qa)))
		if err != nil {
			t.Fatal(err)
		}
		abOut, _ := runAt(t, s, pl, int32(qa))
		if so := sbOut.SubOpt(s.PointCost[qa]); so > worstSB {
			worstSB = so
		}
		if so := abOut.SubOpt(s.PointCost[qa]); so > worstAB {
			worstAB = so
		}
	}
	// AB may lose slightly on individual points (penalty-inflated
	// budgets) but must not blow up the worst case.
	if worstAB > worstSB*1.5 {
		t.Errorf("MSOe: AB %v much worse than SB %v", worstAB, worstSB)
	}
}

func TestDecisionPenaltySanity(t *testing.T) {
	s := testutil.Space2D(t, 10)
	pl := NewPlanner(s)
	unlearned := []int{-1, -1}
	for ci := range s.NumContours() {
		dec := pl.Decide(unlearned, ci)
		if len(dec.Execs) == 0 {
			t.Fatalf("contour %d: no executions chosen", ci)
		}
		if dec.Penalty < 1-1e-9 || math.IsInf(dec.Penalty, 1) {
			t.Fatalf("contour %d: penalty %v out of range", ci, dec.Penalty)
		}
		// At most one execution per remaining dimension.
		if len(dec.Execs) > 2 {
			t.Fatalf("contour %d: %d execs for 2 dims", ci, len(dec.Execs))
		}
		// π* for the chosen partition can never exceed the all-singleton
		// partition's cost, which is at most the number of dims spilled on.
		if dec.Penalty > 2+1e-9 && dec.Parts <= 2 {
			// Penalty above part count means induced replacements were
			// chosen over the (penalty = parts) singleton partition —
			// contradiction with minimality.
			t.Fatalf("contour %d: penalty %v exceeds singleton cover for %d parts",
				ci, dec.Penalty, dec.Parts)
		}
		for _, ex := range dec.Execs {
			if ex.Budget <= 0 {
				t.Fatal("non-positive budget")
			}
			if !ex.Induced && ex.Budget != s.ContourAt(nil, ci).Cost {
				t.Fatal("native execution must use the contour budget")
			}
			if !ex.Induced && ex.Penalty != 1 {
				t.Fatal("native execution must have penalty 1")
			}
			if ex.Induced && ex.Penalty < 1-1e-9 {
				t.Fatalf("induced penalty %v below 1", ex.Penalty)
			}
		}
	}
}

func TestDecisionCached(t *testing.T) {
	s := testutil.Space2D(t, 8)
	pl := NewPlanner(s)
	a := pl.Decide([]int{-1, -1}, 2)
	b := pl.Decide([]int{-1, -1}, 2)
	if a != b {
		t.Fatal("decisions should be cached and shared")
	}
}

func TestMaxPenaltyReported(t *testing.T) {
	s := testutil.Space2D(t, 10)
	pl := NewPlanner(s)
	_, pen := runAt(t, s, pl, int32(s.Grid.Terminus()))
	if pen < 1 {
		t.Fatalf("max penalty %v must be ≥ 1 for a run crossing contours", pen)
	}
	if pen > 10 {
		t.Errorf("max penalty %v implausibly high for 2D", pen)
	}
}

func TestProfileShape(t *testing.T) {
	s := testutil.Space2D(t, 10)
	pl := NewPlanner(s)
	prof := pl.Profile()
	if len(prof) != s.NumContours() {
		t.Fatalf("profile length %d != contours %d", len(prof), s.NumContours())
	}
	for i, ca := range prof {
		if ca.Contour != i+1 {
			t.Error("contour numbering broken")
		}
		if ca.Native && ca.MinPenalty != 1 {
			t.Error("native contours must have penalty 1")
		}
		if !ca.Native && ca.MinPenalty <= 1 {
			t.Errorf("contour %d: non-native with penalty %v ≤ 1", i+1, ca.MinPenalty)
		}
	}
}

func TestAlignedFraction(t *testing.T) {
	prof := []ContourAlignment{
		{MinPenalty: 1}, {MinPenalty: 1.3}, {MinPenalty: 2.5}, {MinPenalty: math.Inf(1)},
	}
	if got := AlignedFraction(prof, 1); got != 0.25 {
		t.Errorf("original fraction = %v", got)
	}
	if got := AlignedFraction(prof, 1.5); got != 0.5 {
		t.Errorf("1.5 fraction = %v", got)
	}
	if got := AlignedFraction(prof, 3); got != 0.75 {
		t.Errorf("3.0 fraction = %v", got)
	}
	if AlignedFraction(nil, 1) != 0 {
		t.Error("empty profile fraction should be 0")
	}
}

func TestMaxProfilePenalty(t *testing.T) {
	prof := []ContourAlignment{{MinPenalty: 1}, {MinPenalty: 2.2}}
	if got := MaxProfilePenalty(prof); got != 2.2 {
		t.Errorf("max = %v", got)
	}
	if MaxProfilePenalty(nil) != 1 {
		t.Error("empty profile max should be 1")
	}
}

func TestPlannerWithoutOptimizerProbes(t *testing.T) {
	s := testutil.Space2D(t, 8)
	pl := NewPlanner(s)
	pl.UseOptimizer = false
	for qa := 0; qa < s.Grid.NumPoints(); qa += 5 {
		runAt(t, s, pl, int32(qa))
	}
}

func TestTraceBudgetsRespectPenalty(t *testing.T) {
	s := testutil.Space2D(t, 10)
	pl := NewPlanner(s)
	qa := int32(s.Grid.Linear([]int{8, 6}))
	out, _ := runAt(t, s, pl, qa)
	for _, step := range out.Steps {
		if step.Phase != discovery.PhaseSpill {
			continue
		}
		cc := s.ContourAt(nil, step.Contour-1).Cost
		// Budgets are CC_i for native, Cost(P,q) ≥ CC_i·Δ⁻¹ for induced;
		// in no case should a budget be absurdly above the contour cost.
		if step.Budget > cc*20 {
			t.Errorf("budget %v vastly exceeds contour cost %v", step.Budget, cc)
		}
	}
}

// BenchmarkPlannerColdDecision times AlignedBound's planner on a slice
// it has not decided before: every contour of 5D_Q91's res-8 lazy
// surface with dimension 0 pinned mid-grid, through a fresh planner (an
// empty decision cache) over a warm source (contours and points settled
// by the first pass). What remains is contour geometry, partition
// search, and the per-spill-class optimizer probes of induceAlignment.
func BenchmarkPlannerColdDecision(b *testing.B) {
	spec, err := workload.ByName("5D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.LazySpaceWith(1.0, ess.Config{Res: 8})
	if err != nil {
		b.Fatal(err)
	}
	learned := []int{4, -1, -1, -1, -1}
	decide := func() {
		pl := NewPlanner(src)
		for ci := 0; ci < src.NumContours(); ci++ {
			pl.Decide(learned, ci)
		}
	}
	decide()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide()
	}
}

// BenchmarkPlannerAcrossEpochs times what a lazy server's planner pays
// after a refinement bump: a warm planner re-decides every root-slice
// contour of 5D_Q91's res-8 lazy surface. Each iteration advances the
// epoch the planner reads, over an unchanged surface, so the source's
// contours stay warm and what is timed is the planner's share of the
// bump: every decision recomputed, with the probe memo as earlier
// epochs left it.
func BenchmarkPlannerAcrossEpochs(b *testing.B) {
	spec, err := workload.ByName("5D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	lazy, err := spec.LazySpaceWith(1.0, ess.Config{Res: 8})
	if err != nil {
		b.Fatal(err)
	}
	src := &epochSource{ContourSource: lazy}
	pl := NewPlanner(src)
	pl.Prime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.epoch.Add(1)
		pl.Prime()
	}
}
