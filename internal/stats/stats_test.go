package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/query"
	"repro/internal/sqlparse"
)

func smallCat() *catalog.Catalog {
	c := catalog.New("s", 1)
	c.AddTable(&catalog.Table{Name: "dim", BaseRows: 100, Columns: []catalog.Column{
		{Name: "d_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "d_attr", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 10},
	}})
	c.AddTable(&catalog.Table{Name: "fact", BaseRows: 1000, Columns: []catalog.Column{
		{Name: "f_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "f_dim", Type: catalog.Int64, Dist: catalog.FKUniform, Ref: "dim"},
		{Name: "f_val", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 50},
	}})
	return c
}

func parse(t *testing.T, c *catalog.Catalog, sql string) *query.Query {
	t.Helper()
	q, err := sqlparse.Parse("t", c, sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFromCatalogBasics(t *testing.T) {
	s := FromCatalog(smallCat())
	if s.TableRows("dim") != 100 || s.TableRows("fact") != 1000 {
		t.Fatal("TableRows wrong")
	}
	if s.NDV("dim", "d_id") != 100 {
		t.Errorf("serial NDV = %v, want 100", s.NDV("dim", "d_id"))
	}
	if s.NDV("dim", "d_attr") != 10 {
		t.Errorf("uniform NDV = %v, want 10", s.NDV("dim", "d_attr"))
	}
	if s.NDV("fact", "f_dim") != 100 {
		t.Errorf("FK NDV = %v, want 100 (ref rows)", s.NDV("fact", "f_dim"))
	}
}

func TestUnknownTablePanics(t *testing.T) {
	s := FromCatalog(smallCat())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown table should panic")
		}
	}()
	s.TableRows("zzz")
}

func TestUnknownColumnPanics(t *testing.T) {
	s := FromCatalog(smallCat())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown column should panic")
		}
	}()
	s.NDV("dim", "zzz")
}

func TestAnalyticFilterSel(t *testing.T) {
	s := FromCatalog(smallCat())
	cases := []struct {
		op   expr.CmpOp
		v    int64
		want float64
	}{
		{expr.EQ, 5, 0.1},
		{expr.NE, 5, 0.9},
		{expr.LT, 6, 0.5},
		{expr.LE, 5, 0.5},
		{expr.GT, 5, 0.5},
		{expr.GE, 6, 0.5},
		{expr.EQ, 99, 0}, // outside domain
		{expr.NE, 99, 1}, // outside domain
		{expr.LT, 1, 0},  // nothing below min
		{expr.GE, 1, 1},  // everything
		{expr.LE, 99, 1}, // clamped
		{expr.GT, 99, 0}, // clamped
	}
	for _, c := range cases {
		got := s.FilterSel("dim", query.FilterPred{Column: "d_attr", Op: c.op, Value: c.v})
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("sel(d_attr %s %d) = %v, want %v", c.op, c.v, got, c.want)
		}
	}
}

func TestRelFilterSelAndFilteredRows(t *testing.T) {
	c := smallCat()
	s := FromCatalog(c)
	q := parse(t, c, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id AND f.f_val <= 25 AND d.d_attr = 3`)
	fi := q.RelIndex("f")
	if sel := s.RelFilterSel(q, fi); math.Abs(sel-0.5) > 1e-9 {
		t.Errorf("fact filter sel = %v, want 0.5", sel)
	}
	if rows := s.FilteredRows(q, fi); math.Abs(rows-500) > 1e-6 {
		t.Errorf("fact filtered rows = %v, want 500", rows)
	}
	di := q.RelIndex("d")
	if rows := s.FilteredRows(q, di); math.Abs(rows-10) > 1e-6 {
		t.Errorf("dim filtered rows = %v, want 10", rows)
	}
	// No filters → sel 1.
	q2 := parse(t, c, `SELECT * FROM dim d`)
	if s.RelFilterSel(q2, 0) != 1 {
		t.Error("no-filter sel should be 1")
	}
}

func TestBestIndexSel(t *testing.T) {
	c := smallCat()
	s := FromCatalog(c)
	q := parse(t, c, `SELECT * FROM fact f WHERE f.f_val <= 25 AND f.f_val <= 5`)
	if got := s.BestIndexSel(q, 0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("BestIndexSel = %v, want 0.1 (most selective)", got)
	}
	q2 := parse(t, c, `SELECT * FROM fact f`)
	if s.BestIndexSel(q2, 0) != 1 {
		t.Error("BestIndexSel with no filters should be 1")
	}
}

func TestJoinSelEstimate(t *testing.T) {
	c := smallCat()
	s := FromCatalog(c)
	q := parse(t, c, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`)
	// max NDV = 100 (both sides 100) → 0.01.
	if got := s.JoinSelEstimate(q, q.Joins[0]); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("JoinSelEstimate = %v, want 0.01", got)
	}
}

func TestFromDataExactCounts(t *testing.T) {
	c := smallCat()
	st, err := datagen.Populate(c, datagen.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromData(c, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.TableRows("fact") != 1000 {
		t.Errorf("data rows = %v", s.TableRows("fact"))
	}
	if s.NDV("dim", "d_id") != 100 {
		t.Errorf("data NDV(d_id) = %v, want 100", s.NDV("dim", "d_id"))
	}
	// Histogram-backed selectivity should be close to the true fraction.
	rel := st.MustRelation("fact")
	ci := rel.ColumnIndex("f_val")
	truth := 0.0
	for ord := range rel.NumRows() {
		if rel.Value(ord, ci).I <= 25 {
			truth++
		}
	}
	truth /= 1000
	got := s.FilterSel("fact", query.FilterPred{Column: "f_val", Op: expr.LE, Value: 25})
	if math.Abs(got-truth) > 0.05 {
		t.Errorf("hist sel = %v, truth = %v", got, truth)
	}
}

func TestFromDataMissingRelation(t *testing.T) {
	c := smallCat()
	st, _ := datagen.Populate(c, datagen.Options{Seed: 1})
	c2 := smallCat()
	c2.AddTable(&catalog.Table{Name: "extra", BaseRows: 1, Columns: []catalog.Column{
		{Name: "e_id", Type: catalog.Int64, Dist: catalog.Serial},
	}})
	if _, err := FromData(c2, st, 8); err == nil {
		t.Fatal("missing relation should be an error")
	}
}

func TestTrueJoinSelFKJoin(t *testing.T) {
	c := smallCat()
	st, _ := datagen.Populate(c, datagen.Options{Seed: 5})
	q := parse(t, c, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`)
	sel, err := TrueJoinSel(st, q, q.Joins[0])
	if err != nil {
		t.Fatal(err)
	}
	// Every fact row matches exactly one dim row: sel = 1/|dim| = 0.01.
	if math.Abs(sel-0.01) > 1e-9 {
		t.Errorf("TrueJoinSel = %v, want 0.01", sel)
	}
}

func TestTrueJoinSelWithFilters(t *testing.T) {
	c := smallCat()
	st, _ := datagen.Populate(c, datagen.Options{Seed: 5})
	q := parse(t, c, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id AND d.d_attr = 1`)
	sel, err := TrueJoinSel(st, q, q.Joins[0])
	if err != nil {
		t.Fatal(err)
	}
	if sel <= 0 {
		t.Fatal("filtered TrueJoinSel should still be positive")
	}
	// With k dim rows surviving the filter, sel should be ≈ 1/k ± skew.
	if sel > 0.5 {
		t.Errorf("TrueJoinSel = %v implausibly high", sel)
	}
}

func TestHistogramBelowMonotoneProperty(t *testing.T) {
	vals := make([]int64, 500)
	r := datagen.NewRNG(3)
	for i := range vals {
		vals[i] = r.IntRange(0, 200)
	}
	cs := buildColStats(vals, 10)
	f := func(a, b int64) bool {
		a, b = a%250, b%250
		if a > b {
			a, b = b, a
		}
		return cs.Hist.Sel(expr.LE, a, cs.NDV) <= cs.Hist.Sel(expr.LE, b, cs.NDV)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramEqMatchesTruthApprox(t *testing.T) {
	vals := make([]int64, 2000)
	r := datagen.NewRNG(4)
	for i := range vals {
		vals[i] = r.IntRange(1, 20)
	}
	cs := buildColStats(vals, 8)
	count := 0
	for _, v := range vals {
		if v == 7 {
			count++
		}
	}
	truth := float64(count) / 2000
	got := cs.Hist.Sel(expr.EQ, 7, cs.NDV)
	if math.Abs(got-truth) > 0.05 {
		t.Errorf("eq sel = %v, truth %v", got, truth)
	}
	if cs.Hist.Sel(expr.EQ, 999, cs.NDV) != 0 {
		t.Error("eq outside domain should be 0")
	}
}

func TestHistogramRangeComplement(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cs := buildColStats(vals, 4)
	for _, v := range []int64{0, 3, 5, 8, 11} {
		le := cs.Hist.Sel(expr.LE, v, cs.NDV)
		gt := cs.Hist.Sel(expr.GT, v, cs.NDV)
		if math.Abs(le+gt-1) > 1e-9 {
			t.Errorf("LE+GT at %d = %v, want 1", v, le+gt)
		}
		lt := cs.Hist.Sel(expr.LT, v, cs.NDV)
		ge := cs.Hist.Sel(expr.GE, v, cs.NDV)
		if math.Abs(lt+ge-1) > 1e-9 {
			t.Errorf("LT+GE at %d = %v, want 1", v, lt+ge)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := buildHistogram(nil, 4)
	if h.Sel(expr.EQ, 1, 1) != 0 {
		t.Error("empty histogram should estimate 0")
	}
}

func TestHistogramDuplicatesStayTogether(t *testing.T) {
	vals := []int64{1, 1, 1, 1, 1, 1, 1, 2, 3, 4}
	h := buildHistogram(vals, 5)
	for _, b := range h.Buckets {
		if b.Lo == 1 && b.Hi == 1 && b.Count != 7 {
			t.Errorf("value 1 split across buckets: %+v", b)
		}
	}
	// EQ on the heavy value should reflect its frequency.
	if sel := h.Sel(expr.EQ, 1, 4); math.Abs(sel-0.7) > 1e-9 {
		t.Errorf("eq(1) = %v, want 0.7", sel)
	}
}
