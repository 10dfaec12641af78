package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Budget kills must work in every operator's charging path, not just
// hash probes: run each method with a sweep of budgets from 1% to 99% of
// its full cost and check the kill contract.
func TestBudgetKillAllMethods(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	e := New(q, f.store, cost.DefaultParams())
	for name, p := range twoRelPlans(q) {
		full, err := e.Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			budget := full.Cost * frac
			res, err := e.Run(p, budget)
			if err != nil {
				t.Fatalf("%s@%v: %v", name, frac, err)
			}
			if res.Completed {
				t.Fatalf("%s@%v: completed under partial budget", name, frac)
			}
			if math.Abs(res.Cost-budget) > 1e-9 {
				t.Fatalf("%s@%v: killed cost %v != budget %v", name, frac, res.Cost, budget)
			}
		}
	}
}

func TestIndexScanKill(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact ff WHERE ff.f_val <= 50`)
	e := New(q, f.store, cost.DefaultParams())
	full, err := e.Run(plan.NewScan(0, plan.IndexScan), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(plan.NewScan(0, plan.IndexScan), full.Cost/3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("index scan must be killable")
	}
}

func TestIndexScanRequiresFilters(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM dim d`)
	e := New(q, f.store, cost.DefaultParams())
	if _, err := e.Run(plan.NewScan(0, plan.IndexScan), 0); err == nil {
		t.Fatal("index scan without filters must fail to build")
	}
}

func TestIndexScanNEFilterFallsBack(t *testing.T) {
	f := newFixture(t)
	// NE cannot drive a range; with only a NE filter the index scan has
	// no usable driver.
	q := f.parse(t, `SELECT * FROM dim d WHERE d.d_attr <> 2`)
	e := New(q, f.store, cost.DefaultParams())
	if _, err := e.Run(plan.NewScan(0, plan.IndexScan), 0); err == nil {
		t.Fatal("NE-only index scan must fail to build")
	}
	// With an additional range filter it picks the range as driver and
	// applies NE as residual.
	q2 := f.parse(t, `SELECT * FROM dim d WHERE d.d_attr <> 2 AND d.d_attr >= 2`)
	e2 := New(q2, f.store, cost.DefaultParams())
	res, err := e2.Run(plan.NewScan(0, plan.IndexScan), 0)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := e2.Run(plan.NewScan(0, plan.SeqScan), 0)
	if res.Rows != seq.Rows {
		t.Fatalf("index scan rows %d != seq %d", res.Rows, seq.Rows)
	}
}

// scanBoth runs a one-relation query as a scan by the given method, row
// by row (capacity 1) and batched, failing the test unless both agree
// on rows and cost and a completed run returns refCount's rows.
func scanBoth(t *testing.T, f *fixture, sql string, m plan.ScanMethod) (*Result, error) {
	t.Helper()
	q := f.parse(t, sql)
	var out [2]*Result
	var errs [2]error
	for i, batch := range []int{1, DefaultBatchSize} {
		out[i], errs[i] = New(q, f.store, cost.DefaultParams()).WithBatchSize(batch).Run(plan.NewScan(0, m), 0)
	}
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("%s: err %v at capacity 1, %v batched", sql, errs[0], errs[1])
	}
	if errs[0] == nil && (out[0].Rows != out[1].Rows || out[0].Cost != out[1].Cost) {
		t.Fatalf("%s: %d rows cost %g at capacity 1, %d rows cost %g batched",
			sql, out[0].Rows, out[0].Cost, out[1].Rows, out[1].Cost)
	}
	if want := int64(refCount(f.store, q, 0)); errs[0] == nil && out[0].Rows != want {
		t.Fatalf("%s: %d rows, reference %d", sql, out[0].Rows, want)
	}
	return out[0], errs[0]
}

// An index probe that matches no row is a valid driver, and the best
// one: it costs one descent and fetches nothing, whatever the other
// filters would fetch.
func TestIndexScanEmptyProbeDrives(t *testing.T) {
	f := newFixture(t)
	descent := cost.DefaultParams().IdxDescend * log2g(40)
	for _, sql := range []string{
		`SELECT * FROM dim d WHERE d.d_attr = 99`,
		`SELECT * FROM dim d WHERE d.d_attr = 99 AND d.d_id >= 1`,
	} {
		res, err := scanBoth(t, f, sql, plan.IndexScan)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Rows != 0 || math.Abs(res.Cost-descent) > 1e-9 {
			t.Errorf("%s: %d rows at cost %g, want 0 rows at one descent %g", sql, res.Rows, res.Cost, descent)
		}
	}
}

// Bounds at the int64 edges must not wrap: LT MinInt64 and GT MaxInt64
// match nothing and are not ranges, so as the only filter they leave an
// index scan with no driver; the other edge bounds are ranges.
func TestIndexScanInt64EdgeBounds(t *testing.T) {
	f := newFixture(t)
	for _, c := range []struct {
		op     expr.CmpOp
		v      int64
		rows   int64
		ranged bool
	}{
		{expr.GT, math.MaxInt64, 0, false}, {expr.LT, math.MinInt64, 0, false},
		{expr.GE, math.MaxInt64, 0, true}, {expr.LE, math.MinInt64, 0, true},
		{expr.LE, math.MaxInt64, 40, true}, {expr.GE, math.MinInt64, 40, true},
	} {
		tag := fmt.Sprintf("d_attr %v %d", c.op, c.v)
		q := f.parse(t, `SELECT * FROM dim d WHERE d.d_attr = 1`)
		q.Relations[0].Filters = []query.FilterPred{{Column: "d_attr", Op: c.op, Value: c.v}}
		e := New(q, f.store, cost.DefaultParams())
		seq, err := e.Run(plan.NewScan(0, plan.SeqScan), 0)
		if err != nil || seq.Rows != c.rows {
			t.Fatalf("%s: seq scan %+v, %v; want %d rows", tag, seq, err, c.rows)
		}
		idx, err := e.Run(plan.NewScan(0, plan.IndexScan), 0)
		switch {
		case !c.ranged && err == nil:
			t.Errorf("%s: index scan with no range filter must fail to build", tag)
		case c.ranged && (err != nil || idx.Rows != c.rows):
			t.Errorf("%s: index scan %+v, %v; want %d rows", tag, idx, err, c.rows)
		}
	}
}

// Foreign-key columns are indexed like any other, so an equality filter
// on one drives an index scan (the optimizer already prices it).
func TestIndexScanOnForeignKey(t *testing.T) {
	f := newFixture(t)
	const sql = `SELECT * FROM fact f WHERE f.f_dim = 3`
	seq, err := scanBoth(t, f, sql, plan.SeqScan)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := scanBoth(t, f, sql, plan.IndexScan)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Rows == 0 || idx.Rows != seq.Rows {
		t.Fatalf("index scan rows %d, seq scan rows %d", idx.Rows, seq.Rows)
	}
	want := cost.DefaultParams().IdxDescend*log2g(600) + cost.DefaultParams().IdxTuple*float64(seq.Rows)
	if math.Abs(idx.Cost-want) > 1e-9 {
		t.Errorf("index scan cost %g, want %g", idx.Cost, want)
	}
}

func TestInFilterExecution(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM dim d WHERE d.d_attr IN (1, 3)`)
	e := New(q, f.store, cost.DefaultParams())
	res, err := e.Run(plan.NewScan(0, plan.SeqScan), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against a manual count.
	rel := f.store.MustRelation("dim")
	ci := rel.ColumnIndex("d_attr")
	var want int64
	for ord := range rel.NumRows() {
		if v := rel.Value(ord, ci).I; v == 1 || v == 3 {
			want++
		}
	}
	if res.Rows != want {
		t.Fatalf("IN filter rows = %d, want %d", res.Rows, want)
	}
}

func TestMergeJoinKilledDuringSort(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	e := New(q, f.store, cost.DefaultParams())
	p := twoRelPlans(q)["merge"]
	// Budget below the scan+sort cost: the kill must land in Open.
	res, err := e.Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Rows != 0 {
		t.Fatal("merge join should die before emitting rows")
	}
}

func TestRunSpillBudgeted(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	e := New(q, f.store, cost.DefaultParams())
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	root := plan.NewJoin(plan.HashJoin, []int{1}, inner,
		plan.NewScan(q.RelIndex("e"), plan.SeqScan))
	full, err := e.RunSpill(root, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunSpill(root, 0, full.Cost/2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("budgeted spill should be killed")
	}
	if len(res.JoinSel) != 0 {
		t.Fatal("killed spill must not report exact selectivity")
	}
}

func TestExecutorMissingRelation(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM dim d`)
	// Executor over an empty store cannot build scans.
	e := New(q, emptyStore(), cost.DefaultParams())
	if _, err := e.Run(plan.NewScan(0, plan.SeqScan), 0); err == nil {
		t.Fatal("missing relation should error")
	}
}

func TestResolveJoinColsReversedOrientation(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	e := New(q, f.store, cost.DefaultParams())
	// Swap outer/inner relative to the predicate declaration: dim as
	// outer, fact as inner. Column resolution must flip.
	p := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("d"), plan.SeqScan),
		plan.NewScan(q.RelIndex("f"), plan.SeqScan))
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := f.truthJoinCount(t, q)
	if res.Rows != want {
		t.Fatalf("reversed orientation rows = %d, want %d", res.Rows, want)
	}
}

func TestINLJoinRequiresIndex(t *testing.T) {
	f := newFixture(t)
	// Join on a column with no index: f_val is Uniform (indexed by
	// datagen) so pick a synthetic store without indexes instead.
	q := f.parse(t, joinSQL)
	storeNoIdx := regenerateWithoutIndexes(t)
	e := New(q, storeNoIdx, cost.DefaultParams())
	p := twoRelPlans(q)["inl"]
	if _, err := e.Run(p, 0); err == nil {
		t.Fatal("INL join without an index must fail to build")
	}
}

func TestTrueJoinSelMatchesEvalFilterIN(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact ff, dim d WHERE ff.f_dim = d.d_id AND d.d_attr IN (1, 2)`)
	sel, err := stats.TrueJoinSel(f.store, q, q.Joins[0])
	if err != nil {
		t.Fatal(err)
	}
	if sel <= 0 {
		t.Fatal("IN-filtered TrueJoinSel should be positive")
	}
	// Cross-check: the executor's observation must agree.
	e := New(q, f.store, cost.DefaultParams())
	p := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JoinSel[0]-sel) > 1e-12 {
		t.Fatalf("executor observed %v, TrueJoinSel %v", res.JoinSel[0], sel)
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	f := newFixture(t)
	// A cyclic-ish double predicate between the same pair: f_dim = d_id
	// AND f_val = d_attr. The optimizer-facing query model supports it
	// at a single join node (first = physical key, second = residual).
	q := &query.Query{
		Name: "resid",
		Cat:  f.cat,
		Relations: []query.Relation{
			{Table: "fact", Alias: "ff"},
			{Table: "dim", Alias: "d"},
		},
		Joins: []query.Join{
			{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "f_dim", RightCol: "d_id"},
			{ID: 1, LeftRel: 0, RightRel: 1, LeftCol: "f_val", RightCol: "d_attr"},
		},
	}
	e := New(q, f.store, cost.DefaultParams())
	p := plan.NewJoin(plan.HashJoin, []int{0, 1},
		plan.NewScan(0, plan.SeqScan), plan.NewScan(1, plan.SeqScan))
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(refJoin(f.store, q, 0, 1, []int{0, 1}))); want == 0 || res.Rows != want {
		t.Fatalf("residual join rows = %d, want %d", res.Rows, want)
	}
}

// emptyStore returns a store with no relations.
func emptyStore() *storage.Store { return storage.NewStore() }

// regenerateWithoutIndexes rebuilds the fixture data without any
// secondary indexes.
func regenerateWithoutIndexes(t *testing.T) *storage.Store {
	t.Helper()
	f := newFixture(t)
	stripped := storage.NewStore()
	for _, name := range f.store.Names() {
		old := f.store.MustRelation(name)
		rel := storage.NewRelation(old.Name, old.Cols)
		row := make(expr.Row, len(old.Cols))
		for ord := range old.NumRows() {
			for c := range row {
				row[c] = old.Value(ord, c)
			}
			rel.Append(row)
		}
		stripped.Add(rel)
	}
	return stripped
}
