package exec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

// The differential suite pins the tentpole guarantee of the vectorized
// engine: batch-at-a-time execution is observably identical to the
// tuple-at-a-time reference — bit-for-bit on Cost, WastedCost, Drift,
// Completed, Retries, Degraded, and JoinSel — across budget kills,
// retries, and chaos schedules. Result.Rows is additionally identical
// whenever the run completed, faults were armed (lockstep mode), or the
// batch capacity is 1; an unarmed budget kill at capacity > 1 may stop
// at a different row count, which no consumer observes (discovery reads
// only Cost/Completed/JoinSel).

// diffCase is one (query, plan) pair the matrices run.
type diffCase struct {
	name string
	q    *query.Query
	p    *plan.Node
}

func diffCases(t *testing.T, f *fixture) []diffCase {
	t.Helper()
	var cases []diffCase
	qJoin := f.parse(t, joinSQL)
	for name, p := range twoRelPlans(qJoin) {
		cases = append(cases, diffCase{name: "2rel/" + name, q: qJoin, p: p})
	}
	qFilt := f.parse(t, `SELECT * FROM fact f, dim d
		WHERE f.f_dim = d.d_id AND f.f_val <= 40 AND d.d_attr <= 2`)
	for name, p := range twoRelPlans(qFilt) {
		cases = append(cases, diffCase{name: "2rel-filtered/" + name, q: qFilt, p: p})
	}
	qScan := f.parse(t, `SELECT * FROM fact ff WHERE ff.f_val <= 50`)
	cases = append(cases,
		diffCase{name: "seqscan", q: qScan, p: plan.NewScan(0, plan.SeqScan)},
		diffCase{name: "indexscan", q: qScan, p: plan.NewScan(0, plan.IndexScan)},
	)
	qIn := f.parse(t, `SELECT * FROM dim d WHERE d.d_attr IN (1, 3)`)
	cases = append(cases, diffCase{name: "in-filter", q: qIn, p: plan.NewScan(0, plan.SeqScan)})
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q3.RelIndex("d"), plan.SeqScan))
	cases = append(cases,
		diffCase{name: "3rel/hash-hash", q: q3, p: plan.NewJoin(plan.HashJoin, []int{1}, inner,
			plan.NewScan(q3.RelIndex("e"), plan.SeqScan))},
		diffCase{name: "3rel/hash-inl", q: q3, p: plan.NewJoin(plan.IndexNLJoin, []int{1}, inner,
			plan.NewScan(q3.RelIndex("e"), plan.SeqScan))},
		diffCase{name: "3rel/hash-merge", q: q3, p: plan.NewJoin(plan.MergeJoin, []int{1}, inner,
			plan.NewScan(q3.RelIndex("e"), plan.SeqScan))},
	)
	// Double predicate between the same pair (first = physical key,
	// second = residual), mirroring TestJoinWithResidualPredicate.
	qRes := &query.Query{
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
	for name, mk := range map[string]plan.JoinMethod{
		"hash": plan.HashJoin, "merge": plan.MergeJoin, "nl": plan.NLJoin, "inl": plan.IndexNLJoin,
	} {
		cases = append(cases, diffCase{name: "residual/" + name, q: qRes,
			p: plan.NewJoin(mk, []int{0, 1},
				plan.NewScan(0, plan.SeqScan),
				plan.NewScan(1, plan.SeqScan))})
	}
	return cases
}

// runEngines executes the case on both engines with independent (but
// identically configured) injectors and compares.
type engineRun struct {
	res *Result
	err error
	log []faultinject.Fault
}

func runEngine(f *fixture, c diffCase, vectorized bool, batch int, budget float64,
	mkFaults func() *faultinject.Injector, spillJoin int) engineRun {
	e := New(c.q, f.store, cost.DefaultParams()).Vectorized(vectorized)
	if batch > 0 {
		e.WithBatchSize(batch)
	}
	var in *faultinject.Injector
	if mkFaults != nil {
		in = mkFaults()
		e.WithFaults(in)
	}
	var res *Result
	var err error
	if spillJoin >= 0 {
		res, err = e.RunSpill(c.p, spillJoin, budget)
	} else {
		res, err = e.Run(c.p, budget)
	}
	return engineRun{res: res, err: err, log: in.Fired()}
}

// compareRuns asserts the differential contract between a tuple-engine
// run and a vectorized run. compareRows additionally pins Result.Rows.
func compareRuns(t *testing.T, tag string, tup, vec engineRun, compareRows bool) {
	t.Helper()
	if (tup.err == nil) != (vec.err == nil) {
		t.Fatalf("%s: error mismatch: tuple=%v vector=%v", tag, tup.err, vec.err)
	}
	if tup.err != nil && tup.err.Error() != vec.err.Error() {
		t.Fatalf("%s: error text mismatch:\n tuple:  %v\n vector: %v", tag, tup.err, vec.err)
	}
	tr, vr := tup.res, vec.res
	if tr == nil || vr == nil {
		if tr != vr {
			t.Fatalf("%s: result presence mismatch: tuple=%v vector=%v", tag, tr, vr)
		}
		return
	}
	if tr.Cost != vr.Cost {
		t.Fatalf("%s: Cost mismatch: tuple=%.17g vector=%.17g (Δ=%g)",
			tag, tr.Cost, vr.Cost, math.Abs(tr.Cost-vr.Cost))
	}
	if tr.WastedCost != vr.WastedCost {
		t.Fatalf("%s: WastedCost mismatch: tuple=%.17g vector=%.17g", tag, tr.WastedCost, vr.WastedCost)
	}
	if tr.Drift != vr.Drift {
		t.Fatalf("%s: Drift mismatch: tuple=%.17g vector=%.17g", tag, tr.Drift, vr.Drift)
	}
	if tr.Completed != vr.Completed {
		t.Fatalf("%s: Completed mismatch: tuple=%v vector=%v", tag, tr.Completed, vr.Completed)
	}
	if tr.Retries != vr.Retries {
		t.Fatalf("%s: Retries mismatch: tuple=%d vector=%d", tag, tr.Retries, vr.Retries)
	}
	if !reflect.DeepEqual(tr.Degraded, vr.Degraded) {
		t.Fatalf("%s: Degraded mismatch:\n tuple:  %v\n vector: %v", tag, tr.Degraded, vr.Degraded)
	}
	if !reflect.DeepEqual(tr.JoinSel, vr.JoinSel) {
		t.Fatalf("%s: JoinSel mismatch:\n tuple:  %v\n vector: %v", tag, tr.JoinSel, vr.JoinSel)
	}
	if compareRows && tr.Rows != vr.Rows {
		t.Fatalf("%s: Rows mismatch: tuple=%d vector=%d", tag, tr.Rows, vr.Rows)
	}
	if !reflect.DeepEqual(tup.log, vec.log) {
		t.Fatalf("%s: fault schedule mismatch:\n tuple:  %v\n vector: %v", tag, tup.log, vec.log)
	}
}

// TestDifferentialBudgetSweep pins cost metering across the full budget
// ladder for every plan shape: the kill that clamps Used to Budget must
// land on the same billed total in both engines at every fraction.
func TestDifferentialBudgetSweep(t *testing.T) {
	f := newFixture(t)
	fracs := []float64{0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.99, 1.5}
	for _, c := range diffCases(t, f) {
		full := runEngine(f, c, false, 0, 0, nil, -1)
		if full.err != nil {
			t.Fatalf("%s: unbudgeted tuple run failed: %v", c.name, full.err)
		}
		for _, frac := range fracs {
			budget := frac * full.res.Cost
			tag := fmt.Sprintf("%s/budget=%.2f", c.name, frac)
			tup := runEngine(f, c, false, 0, budget, nil, -1)
			vec := runEngine(f, c, true, 0, budget, nil, -1)
			// Rows is pinned only when the run completes (unarmed kill at
			// capacity > 1 may stop on a different row).
			compareRuns(t, tag, tup, vec, tup.res != nil && tup.res.Completed)
		}
	}
}

// TestDifferentialBatchSizes sweeps batch capacities; at capacity 1 the
// engines must agree on everything including Rows at every kill point.
func TestDifferentialBatchSizes(t *testing.T) {
	f := newFixture(t)
	for _, c := range diffCases(t, f) {
		full := runEngine(f, c, false, 0, 0, nil, -1)
		if full.err != nil {
			t.Fatalf("%s: unbudgeted tuple run failed: %v", c.name, full.err)
		}
		for _, batch := range []int{1, 3, 7, 64, 1000} {
			for _, frac := range []float64{0, 0.3, 0.8} {
				budget := frac * full.res.Cost
				tag := fmt.Sprintf("%s/batch=%d/budget=%.1f", c.name, batch, frac)
				tup := runEngine(f, c, false, 0, budget, nil, -1)
				vec := runEngine(f, c, true, batch, budget, nil, -1)
				compareRows := batch == 1 || (tup.res != nil && tup.res.Completed)
				compareRuns(t, tag, tup, vec, compareRows)
			}
		}
	}
}

// TestDifferentialSpill pins spill-mode runs: subtree extraction,
// observed spill selectivities, and budget kills inside the subtree.
func TestDifferentialSpill(t *testing.T) {
	f := newFixture(t)
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q3.RelIndex("d"), plan.SeqScan))
	root := plan.NewJoin(plan.MergeJoin, []int{1}, inner,
		plan.NewScan(q3.RelIndex("e"), plan.SeqScan))
	c := diffCase{name: "3rel-spill", q: q3, p: root}
	for _, joinID := range []int{0, 1} {
		full := runEngine(f, c, false, 0, 0, nil, joinID)
		if full.err != nil {
			t.Fatalf("join %d: unbudgeted spill failed: %v", joinID, full.err)
		}
		if len(full.res.JoinSel) == 0 {
			t.Fatalf("join %d: spill run observed no selectivity", joinID)
		}
		for _, frac := range []float64{0, 0.1, 0.5, 0.9} {
			budget := frac * full.res.Cost
			tag := fmt.Sprintf("spill join=%d budget=%.1f", joinID, frac)
			tup := runEngine(f, c, false, 0, budget, nil, joinID)
			vec := runEngine(f, c, true, 0, budget, nil, joinID)
			compareRuns(t, tag, tup, vec, tup.res != nil && tup.res.Completed)
		}
	}
}

// TestDifferentialChaos replays seed-driven fault schedules through
// both engines. With faults armed the vectorized engine runs in
// lockstep, so everything — fault sequence numbers, kill tuples, retry
// ladders, degradations, drift, and Rows — must replay bit for bit.
func TestDifferentialChaos(t *testing.T) {
	f := newFixture(t)
	execRates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple:     0.05,
		faultinject.SiteIndexProbe:    0.10,
		faultinject.SiteOperatorPanic: 0.02,
		faultinject.SiteSpillObs:      0.20,
		faultinject.SiteLatency:       0.10,
	}
	cases := diffCases(t, f)
	for seed := uint64(1); seed <= 12; seed++ {
		for _, pf := range []float64{0, 0.5, 1} {
			for _, mps := range []uint64{0, 1} {
				mk := func() *faultinject.Injector {
					return faultinject.New(faultinject.Config{
						Seed: seed, Rates: execRates, PersistentFrac: pf, MaxPerSite: mps,
					})
				}
				for _, c := range cases {
					for _, budgetFrac := range []float64{0, 0.5} {
						budget := 0.0
						if budgetFrac > 0 {
							base := runEngine(f, c, false, 0, 0, nil, -1)
							if base.err != nil {
								t.Fatalf("%s: clean run failed: %v", c.name, base.err)
							}
							budget = budgetFrac * base.res.Cost
						}
						tag := fmt.Sprintf("%s/seed=%d pf=%.1f mps=%d budget=%.1f",
							c.name, seed, pf, mps, budgetFrac)
						tup := runEngine(f, c, false, 0, budget, mk, -1)
						vec := runEngine(f, c, true, 0, budget, mk, -1)
						compareRuns(t, tag, tup, vec, true)
					}
				}
			}
		}
	}
}

// TestDifferentialChaosSpill extends the chaos matrix to spill-mode
// runs, covering the spill-observation drop ladder and retries.
func TestDifferentialChaosSpill(t *testing.T) {
	f := newFixture(t)
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q3.RelIndex("d"), plan.SeqScan))
	root := plan.NewJoin(plan.HashJoin, []int{1}, inner,
		plan.NewScan(q3.RelIndex("e"), plan.SeqScan))
	c := diffCase{name: "3rel-chaos-spill", q: q3, p: root}
	rates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple: 0.05,
		faultinject.SiteSpillObs:  0.5,
		faultinject.SiteLatency:   0.10,
	}
	for seed := uint64(1); seed <= 15; seed++ {
		for _, pf := range []float64{0, 1} {
			mk := func() *faultinject.Injector {
				return faultinject.New(faultinject.Config{Seed: seed, Rates: rates, PersistentFrac: pf})
			}
			for _, joinID := range []int{0, 1} {
				tag := fmt.Sprintf("seed=%d pf=%.0f join=%d", seed, pf, joinID)
				tup := runEngine(f, c, false, 0, 0, mk, joinID)
				vec := runEngine(f, c, true, 0, 0, mk, joinID)
				compareRuns(t, tag, tup, vec, true)
			}
		}
	}
}

// TestMeterChargeNMatchesUnitCharges pins the class-count meter's
// re-walk rule: billing a batch with one ChargeN leaves exactly the
// same meter state — Used, per-class counts, and kill index — as
// billing the same tuples one at a time, for any interleaving of
// classes and one-shot charges.
func TestMeterChargeNMatchesUnitCharges(t *testing.T) {
	consts := []float64{1.2, 0.4, 0.1, 2.0}
	type step struct {
		cls int
		n   int64
	}
	script := []step{{0, 7}, {1, 130}, {-1, 3}, {2, 1000}, {0, 64}, {3, 5}, {2, 999}, {1, 1}}
	for _, budget := range []float64{0, 50, 137.77, 500, 1e6} {
		chunked := &Meter{Budget: budget}
		unit := &Meter{Budget: budget}
		var chunkedCls, unitCls []int
		for _, c := range consts {
			chunkedCls = append(chunkedCls, chunked.Class(c))
			unitCls = append(unitCls, unit.Class(c))
		}
		var cErr, uErr error
		var cKill, uKill int64
		for _, s := range script {
			if s.cls < 0 {
				cErr = chunked.Charge(float64(s.n) * 0.3)
				uErr = unit.Charge(float64(s.n) * 0.3)
			} else {
				var k int64
				k, cErr = chunked.ChargeN(chunkedCls[s.cls], s.n)
				if cErr != nil {
					cKill = k
				}
				for i := int64(0); i < s.n && uErr == nil; i++ {
					var ku int64
					ku, uErr = unit.ChargeN(unitCls[s.cls], 1)
					if uErr != nil {
						uKill = i + ku
					}
				}
			}
			if (cErr == nil) != (uErr == nil) {
				t.Fatalf("budget=%g: kill disagreement at step %+v: chunked=%v unit=%v", budget, s, cErr, uErr)
			}
			if cErr != nil {
				break
			}
		}
		if chunked.Used != unit.Used {
			t.Fatalf("budget=%g: Used mismatch: chunked=%.17g unit=%.17g", budget, chunked.Used, unit.Used)
		}
		if cErr != nil && cKill != uKill {
			t.Fatalf("budget=%g: kill index mismatch: chunked=%d unit=%d", budget, cKill, uKill)
		}
		for i := range consts {
			if chunked.classes[i].n != unit.classes[i].n {
				t.Fatalf("budget=%g: class %d count mismatch: chunked=%d unit=%d",
					budget, i, chunked.classes[i].n, unit.classes[i].n)
			}
		}
	}
}

// fallbackFixture hand-builds a store whose join keys take the
// vectorized engine's row-read path: p_n, q_n and r_n hold NULLs, and
// p_m, q_m and r_m mix ints with floats, so Relation.Col has no
// projection for them. r_k is the clean, indexed INL inner key.
func fallbackFixture(t *testing.T) *fixture {
	t.Helper()
	c := catalog.New("fallback", 1)
	tables := []struct {
		name string
		rows int
	}{{"p", 300}, {"q", 60}, {"r", 40}}
	store := storage.NewStore()
	for _, tb := range tables {
		x := tb.name
		c.AddTable(&catalog.Table{Name: x, BaseRows: int64(tb.rows), Columns: []catalog.Column{
			{Name: x + "_id", Type: catalog.Int64, Dist: catalog.Serial},
			{Name: x + "_n", Type: catalog.Int64},
			{Name: x + "_m", Type: catalog.Float64},
			{Name: x + "_k", Type: catalog.Int64},
		}})
		rel := storage.NewRelation(x, []string{x + "_id", x + "_n", x + "_m", x + "_k"})
		for i := 0; i < tb.rows; i++ {
			n := expr.Int(int64(i % 17))
			if i%5 == 3 {
				n = expr.Null
			}
			m := expr.Int(int64(i % 13))
			switch {
			case i%11 == 4:
				m = expr.Null
			case i%3 == 1:
				m = expr.Float(float64(i%13) + float64(i%2)/2)
			}
			rel.Append(expr.Row{expr.Int(int64(i)), n, m, expr.Int(int64(i % 20))})
		}
		rel.BuildIndex(3)
		if rel.Col(1) == nil || !rel.Col(1).HasNulls() || rel.Col(2) != nil {
			t.Fatalf("%s: fixture columns are not NULL-keyed and mixed-kind", x)
		}
		store.Add(rel)
	}
	return &fixture{cat: c, store: store}
}

// TestDifferentialNullAndMixedKeys drives NULL join keys and mixed-kind
// join keys through a non-root hash, merge, NL and index-NL join, with
// the root join reading its key from the bottom join's output. Every
// run must match the tuple engine at batch sizes 1, 7 and 1024, at one
// and four workers, in full and under budget kills.
func TestDifferentialNullAndMixedKeys(t *testing.T) {
	f := fallbackFixture(t)
	rels := []query.Relation{{Table: "p", Alias: "p"}, {Table: "q", Alias: "q"}, {Table: "r", Alias: "r"}}
	q := &query.Query{Name: "fallback", Cat: f.cat, Relations: rels, Joins: []query.Join{
		{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "p_n", RightCol: "q_n"},
		{ID: 1, LeftRel: 0, RightRel: 1, LeftCol: "p_m", RightCol: "q_m"},
		{ID: 2, LeftRel: 0, RightRel: 2, LeftCol: "p_n", RightCol: "r_k"},
		{ID: 3, LeftRel: 0, RightRel: 2, LeftCol: "p_m", RightCol: "r_k"},
		{ID: 4, LeftRel: 1, RightRel: 2, LeftCol: "q_m", RightCol: "r_m"},
		{ID: 5, LeftRel: 1, RightRel: 2, LeftCol: "q_n", RightCol: "r_n"},
	}}
	scan := func(rel int) *plan.Node { return plan.NewScan(rel, plan.SeqScan) }
	var cases []diffCase
	for _, key := range []struct {
		name              string
		bottom, top       int // p ⋈ q, then ⋈ r
		inlBottom, inlTop int // p ⋈ r (index-NL), then ⋈ q
	}{{"null", 0, 5, 2, 0}, {"mixed", 1, 4, 3, 1}} {
		for name, m := range map[string]plan.JoinMethod{
			"hash": plan.HashJoin, "merge": plan.MergeJoin, "nl": plan.NLJoin,
		} {
			bottom := plan.NewJoin(m, []int{key.bottom}, scan(0), scan(1))
			cases = append(cases, diffCase{name: key.name + "/" + name, q: q,
				p: plan.NewJoin(plan.HashJoin, []int{key.top}, bottom, scan(2))})
		}
		bottom := plan.NewJoin(plan.IndexNLJoin, []int{key.inlBottom}, scan(0), scan(2))
		cases = append(cases, diffCase{name: key.name + "/inl", q: q,
			p: plan.NewJoin(plan.HashJoin, []int{key.inlTop}, bottom, scan(1))})
	}
	for _, c := range cases {
		full := runEngine(f, c, false, 0, 0, nil, -1)
		if full.err != nil {
			t.Fatalf("%s: unbudgeted tuple run failed: %v", c.name, full.err)
		}
		if full.res.Rows == 0 || len(full.res.JoinSel) != 2 {
			t.Fatalf("%s: degenerate reference run: %+v", c.name, full.res)
		}
		for _, frac := range []float64{0, 0.3, 0.9} {
			budget := frac * full.res.Cost
			tup := runEngine(f, c, false, 0, budget, nil, -1)
			for _, batch := range []int{1, 7, 1024} {
				for _, workers := range []int{1, 4} {
					tag := fmt.Sprintf("%s/batch=%d/workers=%d/budget=%.1f", c.name, batch, workers, frac)
					vec := runWorkers(f, c, workers, batch, budget, nil, -1)
					compareRuns(t, tag, tup, vec, tup.res.Completed || (batch == 1 && workers == 1))
				}
			}
		}
	}
}

// TestJoinMethodsAgreeOnMixedKeys pins every join method in both
// engines to a count worked out by hand over fallbackFixture. p_m and
// q_m mix ints, integral floats and halves: 4.0 joins 4, 4.5 joins only
// 4.5, and NULL joins nothing. p_m = r_k has 454 matching pairs and
// p_m = q_m has 819. Engine-against-engine differentials cannot see a
// shared wrong key, such as a float hashing as 0.
func TestJoinMethodsAgreeOnMixedKeys(t *testing.T) {
	f := fallbackFixture(t)
	rels := []query.Relation{{Table: "p", Alias: "p"}, {Table: "q", Alias: "q"}, {Table: "r", Alias: "r"}}
	q := &query.Query{Name: "mixed", Cat: f.cat, Relations: rels, Joins: []query.Join{
		{ID: 0, LeftRel: 0, RightRel: 2, LeftCol: "p_m", RightCol: "r_k"},
		{ID: 1, LeftRel: 0, RightRel: 1, LeftCol: "p_m", RightCol: "q_m"},
	}}
	methods := map[string]plan.JoinMethod{
		"hash": plan.HashJoin, "merge": plan.MergeJoin, "nl": plan.NLJoin, "inl": plan.IndexNLJoin,
	}
	for _, c := range []struct {
		join, inner int
		want        int64
	}{{0, 2, 454}, {1, 1, 819}} {
		for name, m := range methods {
			if m == plan.IndexNLJoin && c.inner != 2 {
				continue // q_m is mixed-kind, so it has no index
			}
			p := plan.NewJoin(m, []int{c.join}, plan.NewScan(0, plan.SeqScan), plan.NewScan(c.inner, plan.SeqScan))
			for _, vec := range []bool{false, true} {
				res, err := New(q, f.store, cost.DefaultParams()).Vectorized(vec).Run(p, 0)
				if err != nil {
					t.Fatalf("join %d %s vectorized=%v: %v", c.join, name, vec, err)
				}
				if res.Rows != c.want {
					t.Errorf("join %d %s vectorized=%v: %d rows, want %d", c.join, name, vec, res.Rows, c.want)
				}
			}
		}
	}
}

// A float that is not an integer keys by its bit pattern, so it can
// share a hash bucket or index key with an int; the candidate recheck
// must drop the pair. In the first input a_k holds 0.5 and 1, b_k the
// int whose value is 0.5's bit pattern and 1: one true match. In the
// second a_k holds NaN and 2^53, b_k 7 and 2^53+1: NaN equals no number
// and 2^53 is not 2^53+1, though float64(2^53+1) is 2^53, so no method
// may match, and the filter a_k = 7 passes no row. In the third, two
// NaNs with different payloads are equal, as in every method.
func TestJoinKeyCollisionRechecked(t *testing.T) {
	nan2 := expr.Float(math.Float64frombits(0x7ff8000000000002))
	for _, in := range []struct {
		a, b           []expr.Value
		join           int64
		filter, passed int64 // a_k = filter passes that many rows
	}{
		{[]expr.Value{expr.Float(0.5), expr.Int(1)}, []expr.Value{expr.Int(int64(math.Float64bits(0.5))), expr.Int(1)}, 1, 1, 1},
		{[]expr.Value{expr.Float(math.NaN()), expr.Float(1 << 53)}, []expr.Value{expr.Int(7), expr.Int(1<<53 + 1)}, 0, 7, 0},
		{[]expr.Value{expr.Float(math.NaN()), expr.Float(0.5)}, []expr.Value{nan2, expr.Float(0.5)}, 2, 0, 0},
	} {
		c := catalog.New("collide", 1)
		store := storage.NewStore()
		for _, tb := range []struct {
			name string
			keys []expr.Value
		}{{"a", in.a}, {"b", in.b}} {
			x := tb.name
			c.AddTable(&catalog.Table{Name: x, BaseRows: 2, Columns: []catalog.Column{
				{Name: x + "_id", Type: catalog.Int64, Dist: catalog.Serial},
				{Name: x + "_k", Type: catalog.Float64},
			}})
			rel := storage.NewRelation(x, []string{x + "_id", x + "_k"})
			for i, k := range tb.keys {
				rel.Append(expr.Row{expr.Int(int64(i)), k})
			}
			if k := rel.Col(1); k != nil && k.Kind == expr.KindInt {
				rel.BuildIndex(1)
			}
			store.Add(rel)
		}
		q := &query.Query{Name: "collide", Cat: c,
			Relations: []query.Relation{{Table: "a", Alias: "a"}, {Table: "b", Alias: "b"}},
			Joins:     []query.Join{{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "a_k", RightCol: "b_k"}}}
		for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NLJoin, plan.IndexNLJoin} {
			for _, ends := range [][2]int{{0, 1}, {1, 0}} {
				if m == plan.IndexNLJoin && (ends[1] != 1 || !store.MustRelation("b").HasIndex(1)) {
					continue // only an int b_k is indexed
				}
				p := plan.NewJoin(m, []int{0}, plan.NewScan(ends[0], plan.SeqScan), plan.NewScan(ends[1], plan.SeqScan))
				for _, vec := range []bool{false, true} {
					res, err := New(q, store, cost.DefaultParams()).Vectorized(vec).Run(p, 0)
					if err != nil || res.Rows != in.join {
						t.Errorf("a_k %v, b_k %v: %v outer=%d vectorized=%v: %+v, %v; want %d rows",
							in.a, in.b, m, ends[0], vec, res, err, in.join)
					}
				}
			}
		}
		q.Relations[0].Filters = []query.FilterPred{{Column: "a_k", Op: expr.EQ, Value: in.filter}}
		for _, vec := range []bool{false, true} {
			res, err := New(q, store, cost.DefaultParams()).Vectorized(vec).Run(plan.NewScan(0, plan.SeqScan), 0)
			if err != nil || res.Rows != in.passed {
				t.Errorf("a_k %v: seq scan a_k = %d vectorized=%v: %+v, %v; want %d rows", in.a, in.filter, vec, res, err, in.passed)
			}
		}
	}
}

// stringKeyQuery hand-builds tables a (left rows) and b (right rows)
// keyed by distinct strings a_s, b_s and by bools a_b, b_b. a_s is
// "k<i mod left/2>" and b_s "k<7i mod left>", so about half of b's keys
// find two a rows each and the rest find none.
func stringKeyQuery(left, right int) (*query.Query, *storage.Store) {
	c := catalog.New("strkeys", 1)
	store := storage.NewStore()
	for _, tb := range []struct {
		name string
		rows int
		s    func(int) string
		b    func(int) bool
	}{
		{"a", left, func(i int) string { return fmt.Sprintf("k%d", i%(left/2)) }, func(i int) bool { return i%2 == 0 }},
		{"b", right, func(i int) string { return fmt.Sprintf("k%d", 7*i%left) }, func(i int) bool { return i%3 == 0 }},
	} {
		x := tb.name
		c.AddTable(&catalog.Table{Name: x, BaseRows: int64(tb.rows), Columns: []catalog.Column{
			{Name: x + "_id", Type: catalog.Int64, Dist: catalog.Serial},
			{Name: x + "_s", Type: catalog.String},
			{Name: x + "_b", Type: catalog.Int64},
		}})
		rel := storage.NewRelation(x, []string{x + "_id", x + "_s", x + "_b"})
		for i := 0; i < tb.rows; i++ {
			rel.Append(expr.Row{expr.Int(int64(i)), expr.Str(tb.s(i)), expr.Bool(tb.b(i))})
		}
		store.Add(rel)
	}
	q := &query.Query{Name: "strkeys", Cat: c,
		Relations: []query.Relation{{Table: "a", Alias: "a"}, {Table: "b", Alias: "b"}},
		Joins: []query.Join{
			{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "a_s", RightCol: "b_s"},
			{ID: 1, LeftRel: 0, RightRel: 1, LeftCol: "a_b", RightCol: "b_b"},
		}}
	return q, store
}

// TestStringKeyJoinMatchesNLJoin joins on distinct string keys and on
// bool keys with the hash and merge joins, in both engines and from
// either side: each must return the tuple NL join's rows, at the same
// cost in both engines.
func TestStringKeyJoinMatchesNLJoin(t *testing.T) {
	q, store := stringKeyQuery(300, 200)
	for _, join := range []int{0, 1} {
		for _, ends := range [][2]int{{0, 1}, {1, 0}} {
			run := func(m plan.JoinMethod, vec bool) *Result {
				p := plan.NewJoin(m, []int{join}, plan.NewScan(ends[0], plan.SeqScan), plan.NewScan(ends[1], plan.SeqScan))
				res, err := New(q, store, cost.DefaultParams()).Vectorized(vec).Run(p, 0)
				if err != nil {
					t.Fatalf("join %d outer=%d %v vectorized=%v: %v", join, ends[0], m, vec, err)
				}
				return res
			}
			want := run(plan.NLJoin, false)
			if want.Rows == 0 {
				t.Fatalf("join %d: the NL join matches no row", join)
			}
			for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NLJoin} {
				tup, vec := run(m, false), run(m, true)
				for _, got := range []*Result{tup, vec} {
					if got.Rows != want.Rows {
						t.Errorf("join %d outer=%d %v vectorized=%v: %d rows, NL join %d", join, ends[0], m, got == vec, got.Rows, want.Rows)
					}
				}
				if tup.Cost != vec.Cost {
					t.Errorf("join %d outer=%d %v: cost %v in the tuple engine, %v vectorized", join, ends[0], m, tup.Cost, vec.Cost)
				}
			}
		}
	}
}

// TrueJoinSel is the ground truth discovery converges to, so it must
// count what the executor joins: a NULL key matches nothing, and a join
// column that is not an int vector is an error, not a guess.
func TestTrueJoinSelAgreesWithHashJoin(t *testing.T) {
	fb, fk := fallbackFixture(t), newFixture(t)
	pq := func(l, r string) *query.Query {
		return &query.Query{Name: "pq", Cat: fb.cat,
			Relations: []query.Relation{{Table: "p", Alias: "p"}, {Table: "q", Alias: "q"}},
			Joins:     []query.Join{{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: l, RightCol: r}}}
	}
	for _, c := range []struct {
		f *fixture
		q *query.Query
	}{{fb, pq("p_n", "q_n")}, {fk, fk.parse(t, joinSQL+` AND f.f_val <= 40`)}} {
		p := plan.NewJoin(plan.HashJoin, []int{0}, plan.NewScan(0, plan.SeqScan), plan.NewScan(1, plan.SeqScan))
		res, err := New(c.q, c.f.store, cost.DefaultParams()).Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.f.truthJoinCount(t, c.q); res.Rows != want || want == 0 {
			t.Errorf("%s = %s: hash join %d rows, TrueJoinSel·|L|·|R| = %d",
				c.q.Joins[0].LeftCol, c.q.Joins[0].RightCol, res.Rows, want)
		}
	}
	mixed := pq("p_m", "q_m")
	if _, err := stats.TrueJoinSel(fb.store, mixed, mixed.Joins[0]); !errors.Is(err, stats.ErrNonIntColumn) {
		t.Errorf("p_m = q_m: TrueJoinSel error %v, want ErrNonIntColumn", err)
	}
}

// TestDifferentialBuildRefusals pins that both engines refuse the same
// plans the same way: a plan that cannot be built fails with the same
// cause, wrapped as the build stage's *OperatorError, before any cost
// is metered.
func TestDifferentialBuildRefusals(t *testing.T) {
	f := newFixture(t)
	factOnly := storage.NewStore()
	factOnly.Add(f.store.MustRelation("fact"))
	noIdx := regenerateWithoutIndexes(t)
	qJoin := f.parse(t, joinSQL)
	qScan := f.parse(t, `SELECT * FROM fact ff WHERE ff.f_val <= 50`)
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	for _, c := range []struct {
		name  string
		q     *query.Query
		store *storage.Store
		p     *plan.Node
		want  string
	}{
		{"missing relation", qJoin, factOnly, twoRelPlans(qJoin)["hash"],
			"exec: store missing relation dim"},
		{"index scan without index", qScan, noIdx, plan.NewScan(0, plan.IndexScan),
			"exec: no usable index for ff"},
		{"index-NL without index", qJoin, noIdx, twoRelPlans(qJoin)["inl"],
			"exec: no index on dim column 0 for INL join"},
		{"predicate not below children", q3, f.store, plan.NewJoin(plan.HashJoin, []int{1},
			plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
			plan.NewScan(q3.RelIndex("d"), plan.SeqScan)),
			"exec: join 1 columns not found in children"},
	} {
		for _, vec := range []bool{false, true} {
			res, err := New(c.q, c.store, cost.DefaultParams()).Vectorized(vec).Run(c.p, 0)
			var oe *OperatorError
			if !errors.As(err, &oe) || oe.Op != "build" || oe.Err.Error() != c.want {
				t.Fatalf("%s (vectorized=%v): err %v, want the build stage's %q", c.name, vec, err, c.want)
			}
			if res == nil || res.Completed || res.Cost != 0 {
				t.Fatalf("%s (vectorized=%v): refused plan returned %+v", c.name, vec, res)
			}
		}
	}
}
