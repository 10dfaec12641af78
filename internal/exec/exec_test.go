package exec

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
)

// fixture: a small star schema with data.
type fixture struct {
	cat   *catalog.Catalog
	store *storage.Store
	st    *stats.Stats
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	c := catalog.New("exectest", 1)
	c.AddTable(&catalog.Table{Name: "dim", BaseRows: 40, Columns: []catalog.Column{
		{Name: "d_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "d_attr", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 4},
	}})
	c.AddTable(&catalog.Table{Name: "dim2", BaseRows: 25, Columns: []catalog.Column{
		{Name: "e_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "e_attr", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 5},
	}})
	c.AddTable(&catalog.Table{Name: "fact", BaseRows: 600, Columns: []catalog.Column{
		{Name: "f_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "f_dim", Type: catalog.Int64, Dist: catalog.FKUniform, Ref: "dim"},
		{Name: "f_dim2", Type: catalog.Int64, Dist: catalog.FKZipf, Ref: "dim2"},
		{Name: "f_val", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 100},
	}})
	store, err := datagen.Populate(c, datagen.Options{Seed: 77, BuildIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.FromData(c, store, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cat: c, store: store, st: st}
}

func (f *fixture) parse(t testing.TB, sql string) *query.Query {
	t.Helper()
	q, err := sqlparse.Parse("t", f.cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// reference: hand-computed join count for fact ⋈ dim with optional filters.
func (f *fixture) truthJoinCount(t testing.TB, q *query.Query) int64 {
	t.Helper()
	sel, err := stats.TrueJoinSel(f.store, q, q.Joins[0])
	if err != nil {
		t.Fatal(err)
	}
	l := refCount(f.store, q, q.Joins[0].LeftRel)
	r := refCount(f.store, q, q.Joins[0].RightRel)
	return int64(math.Round(sel * float64(l) * float64(r)))
}

const joinSQL = `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`

// allJoinMethods builds the two-relation join plan with each method.
func twoRelPlans(q *query.Query) map[string]*plan.Node {
	outer := plan.NewScan(q.RelIndex("f"), plan.SeqScan)
	inner := plan.NewScan(q.RelIndex("d"), plan.SeqScan)
	return map[string]*plan.Node{
		"hash":  plan.NewJoin(plan.HashJoin, []int{0}, outer, inner),
		"merge": plan.NewJoin(plan.MergeJoin, []int{0}, outer, inner),
		"inl":   plan.NewJoin(plan.IndexNLJoin, []int{0}, outer, inner),
		"nl":    plan.NewJoin(plan.NLJoin, []int{0}, outer, inner),
	}
}

func TestAllJoinMethodsAgreeOnResult(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	want := f.truthJoinCount(t, q)
	if want == 0 {
		t.Fatal("fixture join should produce rows")
	}
	e := New(q, f.store, cost.DefaultParams())
	for name, p := range twoRelPlans(q) {
		res, err := e.Run(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed {
			t.Fatalf("%s: unbudgeted run must complete", name)
		}
		if res.Rows != want {
			t.Errorf("%s: rows = %d, want %d", name, res.Rows, want)
		}
		if res.Cost <= 0 {
			t.Errorf("%s: non-positive cost", name)
		}
	}
}

func TestObservedSelectivityExact(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	truth, err := stats.TrueJoinSel(f.store, q, q.Joins[0])
	if err != nil {
		t.Fatal(err)
	}
	e := New(q, f.store, cost.DefaultParams())
	for name, p := range twoRelPlans(q) {
		res, err := e.Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.JoinSel[0]
		if !ok {
			t.Fatalf("%s: no selectivity observation", name)
		}
		if math.Abs(got-truth) > 1e-12 {
			t.Errorf("%s: observed sel %v != truth %v", name, got, truth)
		}
	}
}

func TestFiltersApplied(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id AND d.d_attr = 2 AND f.f_val <= 50`)
	want := f.truthJoinCount(t, q)
	e := New(q, f.store, cost.DefaultParams())
	p := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != want {
		t.Errorf("filtered join rows = %d, want %d", res.Rows, want)
	}
}

func TestIndexScanMatchesSeqScan(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM dim d WHERE d.d_attr >= 3`)
	e := New(q, f.store, cost.DefaultParams())
	seq, err := e.Run(plan.NewScan(0, plan.SeqScan), 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := e.Run(plan.NewScan(0, plan.IndexScan), 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Rows != idx.Rows {
		t.Errorf("index scan rows %d != seq scan rows %d", idx.Rows, seq.Rows)
	}
}

func TestBudgetTermination(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	e := New(q, f.store, cost.DefaultParams())
	p := twoRelPlans(q)["hash"]
	full, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half the full cost must kill the execution and spend the budget.
	budget := full.Cost / 2
	res, err := e.Run(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("half budget must not complete")
	}
	if math.Abs(res.Cost-budget) > 1e-9 {
		t.Errorf("killed run cost %v, want exactly the budget %v", res.Cost, budget)
	}
	if len(res.JoinSel) != 0 {
		t.Error("killed run must not report exact selectivities")
	}
	// A budget just above the full cost completes at the actual cost.
	res2, err := e.Run(p, full.Cost*1.01)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Completed || math.Abs(res2.Cost-full.Cost) > 1e-9 {
		t.Errorf("run = (%v, %v), want completion at %v", res2.Cost, res2.Completed, full.Cost)
	}
}

func TestRunSpillSubtreeOnly(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact f, dim d, dim2 e
		WHERE f.f_dim = d.d_id AND f.f_dim2 = e.e_id`)
	e := New(q, f.store, cost.DefaultParams())
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	root := plan.NewJoin(plan.HashJoin, []int{1},
		inner,
		plan.NewScan(q.RelIndex("e"), plan.SeqScan))

	full, err := e.Run(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	spill, err := e.RunSpill(root, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !spill.Completed {
		t.Fatal("unbudgeted spill must complete")
	}
	if spill.Cost >= full.Cost {
		t.Errorf("spill cost %v must be below full cost %v", spill.Cost, full.Cost)
	}
	// The spilled join's selectivity is learned exactly.
	truth, _ := stats.TrueJoinSel(f.store, q, q.Joins[0])
	if got := spill.JoinSel[0]; math.Abs(got-truth) > 1e-12 {
		t.Errorf("spill observed sel %v != truth %v", got, truth)
	}
	// Spilling on a predicate the plan doesn't apply fails.
	if _, err := e.RunSpill(root, 99, 0); err == nil {
		t.Error("RunSpill on unknown join should error")
	}
}

// Metered cost must equal the cost model's prediction when the model is
// fed the true cardinalities — the δ=0 fidelity claim.
func TestMeteredCostMatchesModel(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	truth, _ := stats.TrueJoinSel(f.store, q, q.Joins[0])
	env := optimizer.BuildEnv(q, f.st)
	env.JoinSel[0] = truth
	model := cost.NewModel(cost.DefaultParams())
	e := New(q, f.store, cost.DefaultParams())
	for name, p := range twoRelPlans(q) {
		predicted := model.Cost(p, env).Cost
		res, err := e.Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Cost-predicted)/predicted > 0.05 {
			t.Errorf("%s: metered %v vs model %v (>5%% off)", name, res.Cost, predicted)
		}
	}
}

func TestExecutorOverOptimizedPlan(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact f, dim d, dim2 e
		WHERE f.f_dim = d.d_id AND f.f_dim2 = e.e_id AND d.d_attr <= 2`)
	env := optimizer.BuildEnv(q, f.st)
	o := optimizer.New(q, cost.NewModel(cost.DefaultParams()))
	best := o.Best(env)
	e := New(q, f.store, cost.DefaultParams())
	res, err := e.Run(best.Root, 0)
	if err != nil {
		t.Fatalf("optimizer plan failed to execute: %v (%s)", err, best.Root.Signature())
	}
	if !res.Completed {
		t.Fatal("must complete")
	}
	// Cross-check cardinality against a brute-force nested loop count.
	nl := plan.NewJoin(plan.NLJoin, []int{1},
		plan.NewJoin(plan.NLJoin, []int{0},
			plan.NewScan(q.RelIndex("f"), plan.SeqScan),
			plan.NewScan(q.RelIndex("d"), plan.SeqScan)),
		plan.NewScan(q.RelIndex("e"), plan.SeqScan))
	ref, err := e.Run(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != ref.Rows {
		t.Errorf("optimized plan rows %d != reference %d", res.Rows, ref.Rows)
	}
}

func TestMeterChargeSemantics(t *testing.T) {
	m := &Meter{Budget: 10}
	if err := m.Charge(6); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(3.9); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(1); err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if m.Used != 10 {
		t.Errorf("killed meter must clamp to budget, got %v", m.Used)
	}
	// Unlimited meter never fails.
	u := &Meter{}
	if err := u.Charge(1e18); err != nil {
		t.Fatal("unlimited meter must not fail")
	}
}

// TestMeterChargeNKillTupleStaysBilled pins where a batched charge
// stops: at the first tuple whose total exceeds the budget, which stays
// billed and is counted in the returned k, whatever the batch size.
func TestMeterChargeNKillTupleStaysBilled(t *testing.T) {
	for _, n := range []int64{1, 7, 11, 100} {
		m := &Meter{Budget: 10.5}
		h := m.Class(1)
		var billed int64
		var err error
		for err == nil {
			var k int64
			k, err = m.ChargeN(h, n)
			billed += k
		}
		if err != ErrBudgetExceeded || billed != 11 || m.classes[h].n != 11 || m.Used != 10.5 {
			t.Errorf("batches of %d: k sum %d, count %d, Used %v, %v; want 11, 11, 10.5, ErrBudgetExceeded",
				n, billed, m.classes[h].n, m.Used, err)
		}
	}
}

func TestJoinObsSel(t *testing.T) {
	o := JoinObs{LeftRows: 10, RightRows: 20, OutRows: 50}
	if o.Sel() != 0.25 {
		t.Errorf("Sel = %v", o.Sel())
	}
	if (JoinObs{}).Sel() != 0 {
		t.Error("empty observation sel should be 0")
	}
}
