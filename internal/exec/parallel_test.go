package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/plan"
)

// The parallel differential suite pins the morsel scheduler's contract:
// a run at any worker count is observably identical to the sequential
// vectorized run — bit-for-bit on Cost, WastedCost, Completed,
// Degraded, and JoinSel — and a budget kill bills exactly the budget at
// every worker count. Rows is additionally identical for completed runs
// (an unarmed kill may stop workers at different morsels, which no
// consumer observes). Armed faults force sequential lockstep, so chaos
// runs must match bit-for-bit including Rows regardless of the
// configured worker count.

// runWorkers is runEngine for the vectorized engine at a worker count.
func runWorkers(f *fixture, c diffCase, workers, batch int, budget float64,
	mkFaults func() *faultinject.Injector, spillJoin int) engineRun {
	e := New(c.q, f.store, cost.DefaultParams()).WithWorkers(workers)
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

// TestDifferentialWorkerCounts sweeps the worker axis against the
// budget ladder for every plan shape: each worker count must reproduce
// the sequential run's observables exactly, and every kill must clamp
// the billed cost to exactly the budget.
func TestDifferentialWorkerCounts(t *testing.T) {
	f := newFixture(t)
	for _, c := range diffCases(t, f) {
		full := runWorkers(f, c, 1, 0, 0, nil, -1)
		if full.err != nil {
			t.Fatalf("%s: unbudgeted sequential run failed: %v", c.name, full.err)
		}
		for _, workers := range []int{2, 8} {
			for _, frac := range []float64{0, 0.05, 0.3, 0.8, 1.5} {
				budget := frac * full.res.Cost
				tag := fmt.Sprintf("%s/workers=%d/budget=%.2f", c.name, workers, frac)
				seq := runWorkers(f, c, 1, 0, budget, nil, -1)
				par := runWorkers(f, c, workers, 0, budget, nil, -1)
				compareRuns(t, tag, seq, par, seq.res != nil && seq.res.Completed)
				if par.res != nil && !par.res.Completed && budget > 0 && par.res.Cost != budget {
					t.Fatalf("%s: killed run billed %.17g, want exactly budget %.17g",
						tag, par.res.Cost, budget)
				}
			}
		}
	}
}

// TestDifferentialWorkerSpill runs spill-mode subtree executions across
// worker counts: the spilled subtree's observed selectivity and billing
// must match sequential exactly.
func TestDifferentialWorkerSpill(t *testing.T) {
	f := newFixture(t)
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q3.RelIndex("d"), plan.SeqScan))
	root := plan.NewJoin(plan.HashJoin, []int{1}, inner,
		plan.NewScan(q3.RelIndex("e"), plan.SeqScan))
	c := diffCase{name: "3rel-worker-spill", q: q3, p: root}
	for _, joinID := range []int{0, 1} {
		full := runWorkers(f, c, 1, 0, 0, nil, joinID)
		if full.err != nil {
			t.Fatalf("join %d: unbudgeted spill failed: %v", joinID, full.err)
		}
		if len(full.res.JoinSel) == 0 {
			t.Fatalf("join %d: spill run observed no selectivity", joinID)
		}
		for _, workers := range []int{2, 8} {
			for _, frac := range []float64{0, 0.4, 0.9} {
				budget := frac * full.res.Cost
				tag := fmt.Sprintf("spill join=%d workers=%d budget=%.1f", joinID, workers, frac)
				seq := runWorkers(f, c, 1, 0, budget, nil, joinID)
				par := runWorkers(f, c, workers, 0, budget, nil, joinID)
				compareRuns(t, tag, seq, par, seq.res != nil && seq.res.Completed)
			}
		}
	}
}

// TestDifferentialWorkerChaos pins the lockstep rule: with a fault
// injector armed the engine must ignore the worker knob and run
// sequentially, replaying the tuple engine's fault schedule bit for bit
// — including Rows — at every configured worker count.
func TestDifferentialWorkerChaos(t *testing.T) {
	f := newFixture(t)
	rates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple:     0.05,
		faultinject.SiteIndexProbe:    0.10,
		faultinject.SiteOperatorPanic: 0.02,
		faultinject.SiteLatency:       0.10,
	}
	cases := diffCases(t, f)
	for seed := uint64(1); seed <= 6; seed++ {
		mk := func() *faultinject.Injector {
			return faultinject.New(faultinject.Config{
				Seed: seed, Rates: rates, PersistentFrac: 0.5, MaxPerSite: 1,
			})
		}
		for _, c := range cases {
			tag := fmt.Sprintf("%s/seed=%d", c.name, seed)
			tup := runEngine(f, c, false, 0, 0, mk, -1)
			par := runWorkers(f, c, 8, 0, 0, mk, -1)
			compareRuns(t, tag, tup, par, true)
		}
	}
}

// TestDifferentialParallelDeterministicMerge runs the same query twice
// at 8 workers and requires deep-equal Results: the per-worker meter
// merge must be deterministic — integer class counts folded in
// registration order — not merely close. Unbudgeted runs must agree on
// everything including Rows; killed runs on everything but Rows (the
// parallel stop point is scheduling-dependent, the billing is not).
func TestDifferentialParallelDeterministicMerge(t *testing.T) {
	f := newFixture(t)
	for _, c := range diffCases(t, f) {
		a := runWorkers(f, c, 8, 0, 0, nil, -1)
		b := runWorkers(f, c, 8, 0, 0, nil, -1)
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: unbudgeted runs failed: %v / %v", c.name, a.err, b.err)
		}
		if !reflect.DeepEqual(a.res, b.res) {
			t.Fatalf("%s: repeated 8-worker runs differ:\n a: %+v\n b: %+v", c.name, a.res, b.res)
		}
		budget := 0.3 * a.res.Cost
		if budget == 0 {
			continue
		}
		ka := runWorkers(f, c, 8, 0, budget, nil, -1)
		kb := runWorkers(f, c, 8, 0, budget, nil, -1)
		compareRuns(t, c.name+"/killed-merge", ka, kb, false)
	}
}

// TestParallelBudgetKillExactCost pins the merged budget-kill protocol:
// at every worker count the kill fires at the same billed cost — the
// budget, exactly — never an over-run from racing workers.
func TestParallelBudgetKillExactCost(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	c := diffCase{name: "kill", q: q, p: twoRelPlans(q)["hash"]}
	full := runWorkers(f, c, 1, 0, 0, nil, -1)
	if full.err != nil {
		t.Fatalf("unbudgeted run failed: %v", full.err)
	}
	for _, frac := range []float64{0.05, 0.5, 0.95} {
		budget := frac * full.res.Cost
		for _, workers := range []int{1, 2, 4, 8, 16} {
			r := runWorkers(f, c, workers, 0, budget, nil, -1)
			if r.err != nil {
				t.Fatalf("workers=%d frac=%.2f: run errored: %v", workers, frac, r.err)
			}
			if r.res.Completed {
				t.Fatalf("workers=%d frac=%.2f: run not killed", workers, frac)
			}
			if r.res.Cost != budget {
				t.Fatalf("workers=%d frac=%.2f: killed run billed %.17g, want exactly %.17g",
					workers, frac, r.res.Cost, budget)
			}
		}
	}
}

// TestWorkersClamp pins the WithWorkers knob's clamping contract.
func TestWorkersClamp(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, joinSQL)
	e := New(q, f.store, cost.DefaultParams())
	if e.Workers() != 1 {
		t.Fatalf("default workers = %d, want 1", e.Workers())
	}
	if e.WithWorkers(0).Workers() != 1 {
		t.Fatalf("WithWorkers(0) = %d, want 1", e.Workers())
	}
	if e.WithWorkers(1000).Workers() != MaxWorkers {
		t.Fatalf("WithWorkers(1000) = %d, want %d", e.Workers(), MaxWorkers)
	}
}

// TestMorselEligibility pins which plans the scheduler parallelizes: a
// hash-join chain over a sequential scan is morselized, while a merge
// join (order-dependent skip charges) and an index-scan driver are not.
// Without this guard the differential suite would pass trivially if
// dispatch silently fell back to sequential.
func TestMorselEligibility(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact f, dim d
		WHERE f.f_dim = d.d_id AND f.f_val <= 40`)
	meter := &Meter{}
	res := &Result{}
	e := New(q, f.store, cost.DefaultParams()).WithWorkers(8)

	plans := twoRelPlans(q)
	plans["hash-indexscan"] = plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.IndexScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	for name, want := range map[string]bool{
		"hash": true, "inl": true, "nl": true, "merge": false, "hash-indexscan": false,
	} {
		op, err := e.buildRoot(plans[name], meter, res, DefaultBatchSize)
		if err != nil {
			t.Fatal(err)
		}
		if got := morselScanOf(op) != nil; got != want {
			t.Fatalf("%s: morsel-eligible = %v, want %v", name, got, want)
		}
	}
}
