package exec

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// joinParts exposes a built vectorized join's base and output arena;
// ok is false when op is not a join.
func joinParts(op batchOperator) (*vecJoinBase, *outBuf, bool) {
	switch o := op.(type) {
	case *vecHashJoin:
		return &o.vecJoinBase, o.out, true
	case *vecMergeJoin:
		return &o.vecJoinBase, o.out, true
	case *vecNLJoin:
		return &o.vecJoinBase, o.out, true
	case *vecIndexNLJoin:
		return &o.vecJoinBase, o.out, true
	}
	return nil, nil, false
}

// joinColName is the qualified name of one side of a join predicate.
func joinColName(q *query.Query, id int, left bool) string {
	j := q.Joins[id]
	if left {
		return q.Relations[j.LeftRel].Alias + "." + j.LeftCol
	}
	return q.Relations[j.RightRel].Alias + "." + j.RightCol
}

// checkOrdinals walks a built vectorized tree beside its plan: each
// join's key and residual references read the predicate's columns at
// their relations' slots in the children's tuples, and each join below
// the root carries exactly one ordinal vector per base relation under
// it.
func checkOrdinals(t *testing.T, e *Executor, tag string, n *plan.Node, op batchOperator, root bool) {
	t.Helper()
	if n.IsScan() {
		return
	}
	b, out, ok := joinParts(op)
	if !ok {
		t.Fatalf("%s: join node built as %T", tag, op)
	}
	checkOrdinals(t, e, tag, n.Left, b.left, false)
	if b.right != nil {
		checkOrdinals(t, e, tag, n.Right, b.right, false)
	}
	// name is the qualified column a reference reads in child c's tuples.
	name := func(c *plan.Node, ref colRef) string {
		s := ref.slot
		for !c.IsScan() {
			if w := c.Left.NumRels(); s >= w {
				c, s = c.Right, s-w
			} else {
				c = c.Left
			}
		}
		r := &e.q.Relations[c.Scan.Rel]
		return r.Alias + "." + e.q.Cat.MustTable(r.Table).Columns[ref.col].Name
	}
	for _, p := range b.refs.preds {
		id := p.id
		l, r := name(n.Left, p.l), name(n.Right, p.r)
		a, z := joinColName(e.q, id, true), joinColName(e.q, id, false)
		if !(l == a && r == z) && !(l == z && r == a) {
			t.Fatalf("%s: join %d resolved to %s = %s", tag, id, l, r)
		}
	}
	if !root && len(out.ords) != n.NumRels() {
		t.Fatalf("%s: join %v carries %d ordinal vectors over %d relations",
			tag, n.Join.JoinIDs, len(out.ords), n.NumRels())
	}
}

// TestJoinOutputCarriesOrdinals builds every plan of the 4D_Q91 and
// 5D_Q19 plan pools — whole and as every spill subtree — and checks
// that each join below the root carries one ordinal vector per base
// relation under it, that keys and residuals resolve to the right
// columns and slots, and that the root and spill roots are count-only.
func TestJoinOutputCarriesOrdinals(t *testing.T) {
	for _, name := range []string{"4D_Q91", "5D_Q19"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		space, err := spec.Space(0.02, 0)
		if err != nil {
			t.Fatal(err)
		}
		store, err := datagen.Populate(space.Q.Cat, datagen.Options{Seed: 1, BuildIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		e := New(space.Q, store, cost.DefaultParams())
		for id, pi := range space.Plans() {
			roots := map[string]*plan.Node{"full": pi.Root}
			for _, epp := range space.Q.EPPs {
				if sub := plan.SpillSubtree(pi.Root, epp); sub != nil {
					roots[fmt.Sprintf("spill%d", epp)] = sub
				}
			}
			for kind, root := range roots {
				tag := fmt.Sprintf("%s/P%d/%s", name, id, kind)
				op, err := e.buildRoot(root, &Meter{}, &Result{}, DefaultBatchSize)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				checkOrdinals(t, e, tag, root, op, true)
				markDiscardRoot(op)
				if _, out, ok := joinParts(op); ok && !out.discard {
					t.Fatalf("%s: root is not count-only", tag)
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestResidualOnBottomJoinColumn runs a 3-relation plan whose top join
// has a residual predicate on a column that only the bottom join's
// output can supply (d.d_attr = e.e_attr above ff ⋈ d): the bottom
// join must carry the ordinals of ff and d, and every top-join method
// must agree with the tuple engine bit for bit, in full and under
// budget kills.
func TestResidualOnBottomJoinColumn(t *testing.T) {
	f := newFixture(t)
	q := &query.Query{
		Name: "resid3",
		Cat:  f.cat,
		Relations: []query.Relation{
			{Table: "fact", Alias: "ff"},
			{Table: "dim", Alias: "d"},
			{Table: "dim2", Alias: "e"},
		},
		Joins: []query.Join{
			{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "f_dim", RightCol: "d_id"},
			{ID: 1, LeftRel: 0, RightRel: 2, LeftCol: "f_dim2", RightCol: "e_id"},
			{ID: 2, LeftRel: 1, RightRel: 2, LeftCol: "d_attr", RightCol: "e_attr"},
		},
	}
	fact, dim := f.store.MustRelation("fact"), f.store.MustRelation("dim")
	for name, m := range map[string]plan.JoinMethod{
		"hash": plan.HashJoin, "merge": plan.MergeJoin, "nl": plan.NLJoin, "inl": plan.IndexNLJoin,
	} {
		bottom := plan.NewJoin(plan.HashJoin, []int{0}, plan.NewScan(0, plan.SeqScan), plan.NewScan(1, plan.SeqScan))
		c := diffCase{name: "resid3/" + name, q: q,
			p: plan.NewJoin(m, []int{1, 2}, bottom, plan.NewScan(2, plan.SeqScan))}
		e := New(q, f.store, cost.DefaultParams())
		op, err := e.buildRoot(c.p, &Meter{}, &Result{}, DefaultBatchSize)
		if err != nil {
			t.Fatal(err)
		}
		checkOrdinals(t, e, c.name, c.p, op, true)
		// The bottom join's rows are (ff, d) ordinal pairs that satisfy
		// its predicate, covering the whole join.
		b, _, _ := joinParts(op)
		if err := b.left.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			batch, err := b.left.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.ords) != 2 {
				t.Fatalf("%s: bottom join carries %d ordinal vectors, want ff and d", c.name, len(batch.ords))
			}
			for i := 0; i < batch.n; i++ {
				fr, dr := fact.Row(int(batch.ords[0][i])), dim.Row(int(batch.ords[1][i]))
				if !expr.Equal(fr[1], dr[0]) {
					t.Fatalf("%s: bottom row %d joins ff.f_dim=%v with d.d_id=%v", c.name, i, fr[1], dr[0])
				}
			}
			rows += batch.n
		}
		if want := fact.NumRows(); rows != want {
			t.Fatalf("%s: bottom join produced %d rows, want %d", c.name, rows, want)
		}
		op.Close()
		full := runEngine(f, c, false, 0, 0, nil, -1)
		if full.err != nil {
			t.Fatal(full.err)
		}
		if full.res.Rows == 0 || len(full.res.JoinSel) != 3 {
			t.Fatalf("%s: degenerate reference run: %+v", c.name, full.res)
		}
		for _, frac := range []float64{0, 0.3, 0.9} {
			for _, batch := range []int{1, 7, 0} {
				budget := frac * full.res.Cost
				tup := runEngine(f, c, false, 0, budget, nil, -1)
				vec := runEngine(f, c, true, batch, budget, nil, -1)
				compareRuns(t, fmt.Sprintf("%s/batch=%d/budget=%.1f", c.name, batch, frac),
					tup, vec, tup.res.Completed || batch == 1)
			}
		}
	}
}

// TestINLInnerCountFollowsStore pins the index-NL inner-count memo: on
// one reused executor, the observed selectivity tracks an Append (with
// indexes and columns rebuilt) and a Store.Add replacement with the
// same row count, always equal to a fresh tuple-engine run's.
func TestINLInnerCountFollowsStore(t *testing.T) {
	f := newFixture(t)
	q := f.parse(t, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id AND d.d_attr <= 2`)
	p := plan.NewJoin(plan.IndexNLJoin, []int{0},
		plan.NewScan(q.RelIndex("f"), plan.SeqScan),
		plan.NewScan(q.RelIndex("d"), plan.SeqScan))
	reused := New(q, f.store, cost.DefaultParams())
	check := func(stage string) {
		t.Helper()
		got, err := reused.Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(q, f.store, cost.DefaultParams()).Vectorized(false).Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.JoinSel) != 1 || got.JoinSel[0] != want.JoinSel[0] {
			t.Fatalf("%s: reused executor observed %v, fresh tuple run %v", stage, got.JoinSel, want.JoinSel)
		}
	}
	check("initial")
	check("repeat")

	// Append dim rows that pass the filter and that fact rows reference.
	dim := f.store.MustRelation("dim")
	for i := 0; i < 10; i++ {
		dim.Append(expr.Row{expr.Int(int64(i + 1)), expr.Int(1)})
	}
	dim.BuildIndex(0)
	check("after Append")

	// Replace dim with a relation of the same row count whose filter
	// column now passes everywhere.
	repl := storage.NewRelation(dim.Name, dim.Cols)
	for o := range dim.NumRows() {
		row := dim.Row(o)
		repl.Append(expr.Row{row[0], expr.Int(1)})
	}
	repl.BuildIndex(0)
	f.store.Add(repl)
	check("after Store.Add")
}

// TestWorkersReusePooledState runs every differential plan shape twice
// over, at worker counts 1–8, on one executor per query: pooled hash
// tables, row slabs and projected arenas pass between plans of different
// widths and between sequential and morsel runs (where clones share the
// owner's table read-only). Every run must still match a fresh
// tuple-engine run, and every kill must bill exactly its budget.
func TestWorkersReusePooledState(t *testing.T) {
	f := newFixture(t)
	cases := diffCases(t, f)
	type key struct {
		c      int
		budget float64
	}
	ref := map[key]engineRun{}
	for i, c := range cases {
		full := runEngine(f, c, false, 0, 0, nil, -1)
		for _, frac := range []float64{0, 0.3, 1.5} {
			ref[key{i, frac}] = runEngine(f, c, false, 0, frac*full.res.Cost, nil, -1)
		}
	}
	for workers := 1; workers <= 8; workers++ {
		execs := map[*query.Query]*Executor{}
		for pass := 0; pass < 2; pass++ {
			for i, c := range cases {
				e := execs[c.q]
				if e == nil {
					e = New(c.q, f.store, cost.DefaultParams()).WithWorkers(workers)
					execs[c.q] = e
				}
				for _, frac := range []float64{0, 0.3, 1.5} {
					tup := ref[key{i, frac}]
					budget := frac * ref[key{i, 0}].res.Cost
					res, err := e.Run(c.p, budget)
					tag := fmt.Sprintf("%s/workers=%d/pass=%d/budget=%.1f", c.name, workers, pass, frac)
					compareRuns(t, tag, tup, engineRun{res: res, err: err}, tup.res.Completed)
					if !res.Completed && res.Cost != budget {
						t.Fatalf("%s: killed run billed %.17g, want %.17g", tag, res.Cost, budget)
					}
				}
			}
		}
	}
}
