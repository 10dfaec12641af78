package ess

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// buildSpace constructs a 2D space over a three-way TPC-DS join.
func buildSpace(t testing.TB, res int) *Space {
	t.Helper()
	cat, err := catalog.TPCDS(1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.Parse("test2d", cat, `
SELECT * FROM catalog_sales cs, date_dim d, customer c
WHERE cs.cs_sold_date_sk = d.date_dim_sk
  AND cs.cs_bill_customer_sk = c.c_customer_sk
  AND d.d_year = 2000`)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{
		{"cs.cs_sold_date_sk", "d.date_dim_sk"},
		{"cs.cs_bill_customer_sk", "c.c_customer_sk"},
	} {
		if err := sqlparse.MarkEPP(q, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	st := stats.FromCatalog(cat)
	env := optimizer.BuildEnv(q, st)
	model := cost.NewModel(cost.DefaultParams())
	s, err := Build(q, env, model, Config{Res: res})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allContours returns every contour of the slice pinned by learned
// (nil = the full grid), cheapest first.
func allContours(src ContourSource, learned []int) []*Contour {
	out := make([]*Contour, src.NumContours())
	for ci := range out {
		out[ci] = src.ContourAt(learned, ci)
	}
	return out
}

func TestBuildBasics(t *testing.T) {
	s := buildSpace(t, 12)
	if s.Grid.NumPoints() != 144 {
		t.Fatalf("points = %d", s.Grid.NumPoints())
	}
	if s.NumPlans() < 2 {
		t.Errorf("POSP should contain multiple plans, got %d", s.NumPlans())
	}
	if s.Cmin <= 0 || s.Cmax <= s.Cmin {
		t.Fatalf("Cmin=%v Cmax=%v", s.Cmin, s.Cmax)
	}
	// Every point has a valid plan and a cost within [Cmin, Cmax].
	for pt := 0; pt < s.Grid.NumPoints(); pt++ {
		if s.PointCost[pt] < s.Cmin-1e-9 || s.PointCost[pt] > s.Cmax+1e-9 {
			t.Fatalf("point %d cost %v outside [Cmin,Cmax]", pt, s.PointCost[pt])
		}
		if int(s.PointPlan[pt]) >= s.NumPlans() {
			t.Fatalf("point %d has invalid plan id", pt)
		}
	}
}

func TestBuildRequiresEPPs(t *testing.T) {
	cat, err := catalog.TPCDS(1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.Parse("noepp", cat, `SELECT * FROM store s`)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.BuildEnv(q, stats.FromCatalog(cat))
	if _, err := Build(q, env, cost.NewModel(cost.DefaultParams()), Config{Res: 4}); err == nil {
		t.Fatal("space without epps should error")
	}
}

func TestPointCostMonotoneOnGrid(t *testing.T) {
	s := buildSpace(t, 12)
	g := s.Grid
	for pt := 0; pt < g.NumPoints(); pt++ {
		for d := 0; d < g.D; d++ {
			if nxt := g.Step(pt, d); nxt >= 0 && s.PointCost[nxt] <= s.PointCost[pt] {
				t.Fatalf("optimal cost not increasing from %d to %d along dim %d", pt, nxt, d)
			}
		}
	}
}

func TestContourCostsDoubling(t *testing.T) {
	s := buildSpace(t, 12)
	costs := s.ContourCosts()
	if len(costs) < 3 {
		t.Fatalf("too few contours: %v", costs)
	}
	if costs[0] != s.Cmin {
		t.Error("first contour must be at Cmin")
	}
	if costs[len(costs)-1] != s.Cmax {
		t.Error("last contour must be capped at Cmax")
	}
	for i := 1; i < len(costs)-1; i++ {
		if math.Abs(costs[i]/costs[i-1]-2.0) > 1e-9 {
			t.Errorf("intermediate contour ratio %v, want 2.0", costs[i]/costs[i-1])
		}
	}
	if s.NumContours() != len(costs) {
		t.Error("contour structs must match cost list")
	}
	for i, c := range allContours(s, nil) {
		if c.Index != i+1 || c.Cost != costs[i] {
			t.Errorf("contour %d is IC_%d at %v, want IC_%d at %v", i, c.Index, c.Cost, i+1, costs[i])
		}
	}
}

func TestFirstContourIsOrigin(t *testing.T) {
	s := buildSpace(t, 12)
	ic1 := s.ContourAt(nil, 0)
	if len(ic1.Points) != 1 || ic1.Points[0] != int32(s.Grid.Origin()) {
		t.Fatalf("IC1 points = %v, want just the origin", ic1.Points)
	}
}

func TestContourMembersAreMaximal(t *testing.T) {
	s := buildSpace(t, 12)
	g := s.Grid
	for _, c := range allContours(s, nil) {
		if len(c.Points) == 0 {
			t.Fatalf("contour %d empty", c.Index)
		}
		for _, pt := range c.Points {
			if s.PointCost[pt] > c.Cost*(1+1e-6) {
				t.Fatalf("contour %d point %d exceeds budget", c.Index, pt)
			}
			for d := 0; d < g.D; d++ {
				if nxt := g.Step(int(pt), d); nxt >= 0 && s.PointCost[nxt] <= c.Cost*(1-1e-9) {
					t.Fatalf("contour %d point %d has in-budget successor", c.Index, pt)
				}
			}
		}
	}
}

// Every hypograph point must be dominated by some contour point — the
// discrete guarantee behind PlanBouquet/SpillBound completeness.
func TestContourDominatesHypograph(t *testing.T) {
	s := buildSpace(t, 10)
	g := s.Grid
	for _, c := range allContours(s, nil) {
		for pt := 0; pt < g.NumPoints(); pt++ {
			if s.PointCost[pt] > c.Cost {
				continue
			}
			found := false
			for _, cp := range c.Points {
				if g.Dominates(int(cp), pt) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("hypograph point %d of contour %d not dominated", pt, c.Index)
			}
		}
	}
}

func TestLastContourContainsTerminus(t *testing.T) {
	s := buildSpace(t, 10)
	last := s.ContourAt(nil, s.NumContours()-1)
	found := false
	for _, pt := range last.Points {
		if int(pt) == s.Grid.Terminus() {
			found = true
		}
	}
	if !found {
		t.Fatal("terminus must sit on the final contour")
	}
}

func TestEvaluatorPlanCostMatchesPointCost(t *testing.T) {
	s := buildSpace(t, 10)
	ev := s.NewEvaluator()
	for pt := int32(0); pt < int32(s.Grid.NumPoints()); pt++ {
		got := ev.PlanCost(s.PointPlan[pt], pt)
		if math.Abs(got-s.PointCost[pt]) > 1e-6*s.PointCost[pt] {
			t.Fatalf("recost %v != sweep cost %v at %d", got, s.PointCost[pt], pt)
		}
	}
}

func TestEvaluatorOptimality(t *testing.T) {
	// No pool plan may beat the recorded optimal cost anywhere.
	s := buildSpace(t, 8)
	ev := s.NewEvaluator()
	for pt := int32(0); pt < int32(s.Grid.NumPoints()); pt++ {
		for pid := range s.Plans() {
			if ev.PlanCost(int32(pid), pt) < s.PointCost[pt]*(1-1e-9) {
				t.Fatalf("plan %d beats optimal at point %d", pid, pt)
			}
		}
	}
}

func TestSpillCostBelowFullCost(t *testing.T) {
	s := buildSpace(t, 8)
	ev := s.NewEvaluator()
	for pt := int32(0); pt < int32(s.Grid.NumPoints()); pt += 7 {
		pid := s.PointPlan[pt]
		for d := 0; d < s.Grid.D; d++ {
			sc := ev.SpillCost(pid, pt, d)
			if sc > ev.PlanCost(pid, pt)+1e-9 {
				t.Fatalf("spill cost %v exceeds plan cost at pt %d dim %d", sc, pt, d)
			}
		}
	}
}

func TestSpillDimCoversAllPlans(t *testing.T) {
	s := buildSpace(t, 8)
	full := uint16(1<<uint(s.Grid.D)) - 1
	for pid := range s.Plans() {
		d := s.SpillDim(int32(pid), full)
		if d < 0 || d >= s.Grid.D {
			t.Fatalf("plan %d: spill dim %d with all epps remaining", pid, d)
		}
		// Memoized second call must agree.
		if d2 := s.SpillDim(int32(pid), full); d2 != d {
			t.Fatal("SpillDim not deterministic")
		}
	}
	// Empty remaining set → -1.
	if s.SpillDim(0, 0) != -1 {
		t.Error("no remaining epps should yield -1")
	}
}

func TestMaxSelIndexWithin(t *testing.T) {
	s := buildSpace(t, 12)
	ev := s.NewEvaluator()
	// Take a mid contour and its first point/plan.
	c := s.ContourAt(nil, s.NumContours()/2)
	pt := c.Points[0]
	pid := s.PointPlan[pt]
	d := s.SpillDim(pid, uint16(1<<uint(s.Grid.D))-1)
	k := ev.MaxSelIndexWithin(pid, pt, d, c.Cost)
	if k < s.Grid.Coord(int(pt), d) {
		t.Fatalf("guaranteed learning index %d below the point's own coordinate %d (Lemma 3.1)",
			k, s.Grid.Coord(int(pt), d))
	}
	// Check the boundary: cost at k within budget; at k+1 above.
	base := int(pt) - s.Grid.Coord(int(pt), d)*s.Grid.strides[d]
	if got := ev.spillAt(pid, base, d, k); got > c.Cost {
		t.Errorf("spill cost at learned index exceeds budget: %v > %v", got, c.Cost)
	}
	if k+1 < s.Grid.Res {
		if got := ev.spillAt(pid, base, d, k+1); got <= c.Cost {
			t.Errorf("spill cost at k+1 should exceed budget")
		}
	}
	// A zero budget can't even cover index 0.
	if ev.MaxSelIndexWithin(pid, pt, d, 0) != -1 {
		t.Error("zero budget should return -1")
	}
}

func TestContoursForSliceLine(t *testing.T) {
	s := buildSpace(t, 12)
	// Pin dimension 0 to some index; the slice is a 1D line in dim 1.
	learned := []int{4, -1}
	cs := allContours(s, learned)
	for ci, c := range cs {
		if c.Cost != s.ContourAt(nil, ci).Cost {
			t.Fatal("slice contours must follow the global budget list")
		}
		if len(c.Points) > 1 {
			t.Fatalf("1D slice contour %d has %d points, want ≤1", c.Index, len(c.Points))
		}
		for _, pt := range c.Points {
			if s.Grid.Coord(int(pt), 0) != 4 {
				t.Fatal("slice point outside the slice")
			}
		}
	}
	// Caching: same slice returns identical data.
	if s.ContourAt([]int{4, -1}, 0) != cs[0] {
		t.Error("slice contours should be cached")
	}
	// Nothing learned → the memoized global contours.
	if s.ContourAt([]int{-1, -1}, 0) != s.ContourAt(nil, 0) {
		t.Error("unlearned slice should be the global contours")
	}
}

func TestSliceContourDominatesSliceHypograph(t *testing.T) {
	s := buildSpace(t, 10)
	g := s.Grid
	learned := []int{3, -1}
	for _, c := range allContours(s, learned) {
		for k := 0; k < g.Res; k++ {
			pt := g.Linear([]int{3, k})
			if s.PointCost[pt] > c.Cost {
				continue
			}
			dominated := false
			for _, cp := range c.Points {
				if g.Coord(int(cp), 1) >= k {
					dominated = true
				}
			}
			if !dominated {
				t.Fatalf("slice hypograph point %d not covered on contour %d", pt, c.Index)
			}
		}
	}
}

func TestAddPlanDedup(t *testing.T) {
	s := buildSpace(t, 8)
	existing := s.Plans()[0]
	if got := s.AddPlan(existing.Root); got != 0 {
		t.Fatalf("AddPlan of existing = %d, want 0", got)
	}
	n := s.NumPlans()
	// A fresh structure extends the pool.
	q := s.Q
	_ = q
	root := s.Plans()[s.NumPlans()-1].Root
	if got := s.AddPlan(root); int(got) != s.NumPlans()-1 {
		t.Error("AddPlan dedup by signature broken")
	}
	if s.NumPlans() != n {
		t.Error("AddPlan must not duplicate")
	}
}

func TestRhoUnreducedAndReduce(t *testing.T) {
	s := buildSpace(t, 12)
	rho := s.RhoUnreduced()
	if rho < 1 {
		t.Fatal("rho must be positive")
	}
	red := s.Reduce(0.2)
	if red.Rho > rho {
		t.Fatalf("reduction increased rho: %d > %d", red.Rho, rho)
	}
	if red.Rho < 1 {
		t.Fatal("reduced rho must be positive")
	}
	// Validity: every reassigned point's plan within (1+λ) of optimal.
	ev := s.NewEvaluator()
	for pt, pid := range red.PointPlan {
		if c := ev.PlanCost(pid, pt); c > 1.2*s.PointCost[pt]*(1+1e-9) {
			t.Fatalf("reduced plan exceeds threshold at %d: %v vs %v", pt, c, s.PointCost[pt])
		}
	}
	// Zero lambda keeps the original assignment.
	red0 := s.Reduce(0)
	for pt, pid := range red0.PointPlan {
		if pid != s.PointPlan[pt] {
			t.Fatal("lambda=0 must not reassign")
		}
	}
	// Large lambda collapses towards fewer plans.
	redBig := s.Reduce(10)
	if redBig.Rho > red.Rho {
		t.Error("larger lambda should not increase rho")
	}
}

func TestQueryAccessors(t *testing.T) {
	s := buildSpace(t, 8)
	if s.Optimizer() == nil || s.Optimizer().Query() != s.Q {
		t.Fatal("Optimizer accessor broken")
	}
	var _ *query.Query = s.Q
}
