package exec

import (
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// benchFixture is a star schema big enough that per-tuple overheads
// dominate (EXPERIMENTS.md, "Executor throughput").
type benchFixture struct {
	cat   *catalog.Catalog
	store *storage.Store
}

func newBenchFixture(b testing.TB) *benchFixture {
	b.Helper()
	c := catalog.New("execbench", 1)
	c.AddTable(&catalog.Table{Name: "dim", BaseRows: 2000, Columns: []catalog.Column{
		{Name: "d_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "d_attr", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 4},
	}})
	c.AddTable(&catalog.Table{Name: "fact", BaseRows: 50000, Columns: []catalog.Column{
		{Name: "f_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "f_dim", Type: catalog.Int64, Dist: catalog.FKUniform, Ref: "dim"},
		{Name: "f_val", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 100},
	}})
	store, err := datagen.Populate(c, datagen.Options{Seed: 77, BuildIndexes: true})
	if err != nil {
		b.Fatal(err)
	}
	return &benchFixture{cat: c, store: store}
}

func (f *benchFixture) parse(b testing.TB, sql string) *query.Query {
	b.Helper()
	q, err := sqlparse.Parse("b", f.cat, sql)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// benchRun runs the plan b.N times on one warm executor.
func benchRun(b *testing.B, q *query.Query, store *storage.Store, p *plan.Node, budget float64) {
	b.Helper()
	e := New(q, store, cost.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(p, budget)
		if err != nil {
			b.Fatal(err)
		}
		if budget == 0 && !res.Completed {
			b.Fatal("unbudgeted run should complete")
		}
	}
}

func BenchmarkSeqScan(b *testing.B) {
	f := newBenchFixture(b)
	q := f.parse(b, `SELECT * FROM fact f WHERE f.f_val <= 50`)
	p := plan.NewScan(q.RelIndex("f"), plan.SeqScan)
	benchRun(b, q, f.store, p, 0)
}

func BenchmarkHashJoin(b *testing.B) {
	f := newBenchFixture(b)
	q := f.parse(b, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`)
	p := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	benchRun(b, q, f.store, p, 0)
}

// BenchmarkHashJoinStringKeys hash-joins 4000 rows on distinct string
// keys to 4000 (stringKeyQuery): the table is only fast if string keys
// spread over many buckets.
func BenchmarkHashJoinStringKeys(b *testing.B) {
	q, store := stringKeyQuery(4000, 4000)
	p := plan.NewJoin(plan.HashJoin, []int{0}, plan.NewScan(0, plan.SeqScan), plan.NewScan(1, plan.SeqScan))
	benchRun(b, q, store, p, 0)
}

func BenchmarkIndexNL(b *testing.B) {
	f := newBenchFixture(b)
	q := f.parse(b, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`)
	p := plan.NewJoin(plan.IndexNLJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	benchRun(b, q, f.store, p, 0)
}

func BenchmarkBudgetKill(b *testing.B) {
	f := newBenchFixture(b)
	q := f.parse(b, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`)
	p := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	full, err := New(q, f.store, cost.DefaultParams()).Run(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, q, f.store, p, 0.3*full.Cost)
}

// BenchmarkParallelExec pins the morsel scheduler's wall-clock win on
// the star-schema hash join at a fixed worker count (8), so the ledger
// tracks parallel speedup separately from the single-threaded numbers
// above.
func BenchmarkParallelExec(b *testing.B) {
	f := newBenchFixture(b)
	q := f.parse(b, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`)
	p := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	e := New(q, f.store, cost.DefaultParams()).WithWorkers(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("unbudgeted run should complete")
		}
	}
}

// BenchmarkJoinChain measures a join output that is not the root's:
// dim ⋈ fact ⋈ dim, left-deep over the fact scan, so every fact row's
// bottom-join match is emitted and probed again by the top join. The
// two-relation benchmarks above have a count-only root and never emit.
func BenchmarkJoinChain(b *testing.B) {
	f := newBenchFixture(b)
	q := f.parse(b, `SELECT * FROM dim d, fact f, dim e WHERE d.d_id = f.f_dim AND f.f_val = e.d_id`)
	for name, m := range map[string]plan.JoinMethod{"hash": plan.HashJoin, "inl": plan.IndexNLJoin} {
		bottom := plan.NewJoin(m, []int{0},
			plan.NewScan(q.RelIndex("f"), plan.SeqScan),
			plan.NewScan(q.RelIndex("d"), plan.SeqScan))
		p := plan.NewJoin(m, []int{1}, bottom, plan.NewScan(q.RelIndex("e"), plan.SeqScan))
		b.Run(name, func(b *testing.B) { benchRun(b, q, f.store, p, 0) })
	}
}

// TestRepeatRunAllocsBoundedByInput guards what a warm executor
// allocates per run. A hash join whose build side is the 50 000-row
// fact filtered to 2% reuses its pooled table and arenas, so a
// completed run and a run killed at 1% of its budget each allocate a
// few kilobytes — not a table sized by the unfiltered fact (≈3 MB when
// tables were presized from the largest base relation below the
// build). The same holds when the build side is itself a join output
// (dim ⋈ (fact ⋈ dim)): its tuples are ordinals copied into the pooled
// table, so nothing is retained per row.
func TestRepeatRunAllocsBoundedByInput(t *testing.T) {
	const bound = 16 << 10 // bytes per run
	f := newBenchFixture(t)
	q2 := f.parse(t, `SELECT * FROM dim d, fact f WHERE d.d_id = f.f_dim AND f.f_val <= 2`)
	q3 := f.parse(t, `SELECT * FROM dim d, fact f, dim e
		WHERE d.d_id = f.f_dim AND f.f_val = e.d_id AND f.f_val <= 2`)
	plans := []struct {
		name string
		q    *query.Query
		p    *plan.Node
	}{
		{"two-rel", q2, plan.NewJoin(plan.HashJoin, []int{0},
			plan.NewScan(q2.RelIndex("d"), plan.SeqScan),
			plan.NewScan(q2.RelIndex("f"), plan.SeqScan))},
		{"chain", q3, plan.NewJoin(plan.HashJoin, []int{1},
			plan.NewScan(q3.RelIndex("e"), plan.SeqScan),
			plan.NewJoin(plan.HashJoin, []int{0},
				plan.NewScan(q3.RelIndex("f"), plan.SeqScan),
				plan.NewScan(q3.RelIndex("d"), plan.SeqScan)))},
	}
	for _, pc := range plans {
		e := New(pc.q, f.store, cost.DefaultParams())
		full, err := e.Run(pc.p, 0)
		if err != nil || !full.Completed || full.Rows == 0 {
			t.Fatalf("%s: full run: %v %+v", pc.name, err, full)
		}
		for _, c := range []struct {
			name   string
			budget float64
		}{{"completed", 0}, {"killed", 0.01 * full.Cost}} {
			const runs = 20
			e.Run(pc.p, c.budget) // warm the pool for this shape
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				res, err := e.Run(pc.p, c.budget)
				if err != nil || res.Completed != (c.budget == 0) {
					t.Fatalf("%s/%s: %v %+v", pc.name, c.name, err, res)
				}
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s/%s: %d bytes allocated per run", pc.name, c.name, per)
			if per > bound {
				t.Errorf("%s/%s: %d bytes allocated per run, bound %d", pc.name, c.name, per, bound)
			}
		}
	}
}
