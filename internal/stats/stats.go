// Package stats provides cardinality statistics and selectivity
// estimation. Two constructions are supported: analytic statistics
// derived from the catalog's declared distributions (used by the
// cost-model experiments, which need fixed, accurately-known filter
// selectivities), and data-backed statistics with equi-depth histograms
// built by scanning a store (used by the executor experiments).
//
// Join selectivities are deliberately split: JoinSelEstimate returns the
// classic 1/max(NDV) textbook estimate — the error-prone quantity the
// paper abandons — while TrueJoinSel measures the actual selectivity
// from data. The gap between the two is exactly the estimation error the
// robust algorithms are designed to survive.
package stats

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/query"
	"repro/internal/storage"
)

// ColStats summarizes one column.
type ColStats struct {
	// NDV is the number of distinct values.
	NDV float64
	// Min and Max bound the value domain.
	Min, Max int64
	// Hist is the equi-depth histogram; nil for analytic stats.
	Hist *Histogram
}

// TableStats summarizes one table.
type TableStats struct {
	// Rows is the table cardinality.
	Rows float64
	// Cols maps column name to its statistics.
	Cols map[string]*ColStats
}

// Stats holds statistics for all tables of a catalog.
type Stats struct {
	cat    *catalog.Catalog
	tables map[string]*TableStats
}

// FromCatalog derives analytic statistics from the declared column
// distributions, without touching any data.
func FromCatalog(cat *catalog.Catalog) *Stats {
	s := &Stats{cat: cat, tables: make(map[string]*TableStats)}
	for _, t := range cat.Tables() {
		rows := float64(t.Rows(cat.Scale))
		ts := &TableStats{Rows: rows, Cols: make(map[string]*ColStats)}
		for i := range t.Columns {
			col := &t.Columns[i]
			cs := &ColStats{}
			switch col.Dist {
			case catalog.Serial:
				cs.Min, cs.Max = 1, int64(rows)
				cs.NDV = rows
			case catalog.Uniform, catalog.Zipf:
				cs.Min, cs.Max = col.Min, col.Max
				span := float64(col.Max - col.Min + 1)
				cs.NDV = math.Min(span, rows)
			case catalog.FKUniform, catalog.FKZipf:
				refRows := float64(cat.Rows(col.Ref))
				cs.Min, cs.Max = 1, int64(refRows)
				cs.NDV = math.Min(refRows, rows)
			}
			if cs.NDV < 1 {
				cs.NDV = 1
			}
			ts.Cols[col.Name] = cs
		}
		s.tables[t.Name] = ts
	}
	return s
}

// FromData builds statistics by scanning the store: exact row counts and
// NDVs, plus equi-depth histograms with the given bucket count.
func FromData(cat *catalog.Catalog, st *storage.Store, buckets int) (*Stats, error) {
	if buckets < 1 {
		buckets = 16
	}
	s := &Stats{cat: cat, tables: make(map[string]*TableStats)}
	for _, t := range cat.Tables() {
		rel := st.Relation(t.Name)
		if rel == nil {
			return nil, fmt.Errorf("stats: store missing relation %s", t.Name)
		}
		ts := &TableStats{Rows: float64(rel.NumRows()), Cols: make(map[string]*ColStats)}
		for i := range t.Columns {
			if _, err := intColumn(rel, i, false); err != nil {
				return nil, err
			}
			keys, offs := rel.Runs(i)
			ts.Cols[t.Columns[i].Name] = colStats(keys, offs, buckets)
		}
		s.tables[t.Name] = ts
	}
	return s, nil
}

// ErrNonIntColumn reports a FromData column or TrueJoinSel join column
// that is not an int vector (FromData also requires it NULL-free).
var ErrNonIntColumn = errors.New("stats: non-int column")

// intColumn returns column i of rel if it is an int vector, and
// NULL-free unless nulls is set.
func intColumn(rel *storage.Relation, i int, nulls bool) (*storage.Column, error) {
	c := rel.Col(i)
	if c == nil || c.Kind != expr.KindInt || !nulls && c.HasNulls() {
		return nil, fmt.Errorf("%w %s.%s", ErrNonIntColumn, rel.Name, rel.Cols[i])
	}
	return c, nil
}

// colStats summarizes a column from its runs (storage.Relation.Runs):
// the first and last keys bound it, each key is one distinct value, and
// the histogram walks the runs.
func colStats(keys []int64, offs []int32, buckets int) *ColStats {
	cs := &ColStats{}
	if len(keys) == 0 {
		cs.NDV = 1
		return cs
	}
	cs.Min, cs.Max = keys[0], keys[len(keys)-1]
	cs.NDV = float64(len(keys))
	cs.Hist = runHistogram(keys, offs, buckets)
	return cs
}

// TableRows returns the cardinality of the named table.
func (s *Stats) TableRows(table string) float64 {
	return s.must(table).Rows
}

// NDV returns the distinct count of table.column.
func (s *Stats) NDV(table, col string) float64 {
	cs := s.col(table, col)
	return cs.NDV
}

func (s *Stats) must(table string) *TableStats {
	ts := s.tables[table]
	if ts == nil {
		panic("stats: unknown table " + table)
	}
	return ts
}

func (s *Stats) col(table, col string) *ColStats {
	cs := s.must(table).Cols[col]
	if cs == nil {
		panic(fmt.Sprintf("stats: unknown column %s.%s", table, col))
	}
	return cs
}

// FilterSel estimates the selectivity of a single filter predicate on a
// table, in [0, 1].
func (s *Stats) FilterSel(table string, f query.FilterPred) float64 {
	cs := s.col(table, f.Column)
	if f.IsIn() {
		// IN-list: sum of equality selectivities over distinct values.
		sel := 0.0
		seen := make(map[int64]bool, len(f.Values))
		for _, v := range f.Values {
			if seen[v] {
				continue
			}
			seen[v] = true
			eq := query.FilterPred{Column: f.Column, Op: expr.EQ, Value: v}
			if cs.Hist != nil {
				sel += cs.Hist.Sel(expr.EQ, v, cs.NDV)
			} else {
				sel += uniformSel(cs, eq.Op, eq.Value)
			}
		}
		return clampSel(sel)
	}
	if cs.Hist != nil {
		return clampSel(cs.Hist.Sel(f.Op, f.Value, cs.NDV))
	}
	return clampSel(uniformSel(cs, f.Op, f.Value))
}

func uniformSel(cs *ColStats, op expr.CmpOp, v int64) float64 {
	span := float64(cs.Max-cs.Min) + 1
	eq := 1.0 / cs.NDV
	// Fraction of the domain strictly below v.
	below := (float64(v) - float64(cs.Min)) / span
	switch op {
	case expr.EQ:
		if v < cs.Min || v > cs.Max {
			return 0
		}
		return eq
	case expr.NE:
		if v < cs.Min || v > cs.Max {
			return 1
		}
		return 1 - eq
	case expr.LT:
		return below
	case expr.LE:
		return below + eq
	case expr.GT:
		return 1 - below - eq
	case expr.GE:
		return 1 - below
	default:
		return 1
	}
}

func clampSel(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// RelFilterSel estimates the combined selectivity of all filters on the
// query relation (attribute-value independence across predicates).
func (s *Stats) RelFilterSel(q *query.Query, rel int) float64 {
	r := &q.Relations[rel]
	sel := 1.0
	for _, f := range r.Filters {
		sel *= s.FilterSel(r.Table, f)
	}
	return sel
}

// FilteredRows estimates the post-filter cardinality of a relation.
func (s *Stats) FilteredRows(q *query.Query, rel int) float64 {
	return s.TableRows(q.Relations[rel].Table) * s.RelFilterSel(q, rel)
}

// BestIndexSel returns the selectivity of the most selective single
// filter on the relation — the predicate an index scan would use — or 1
// if the relation has no filters.
func (s *Stats) BestIndexSel(q *query.Query, rel int) float64 {
	r := &q.Relations[rel]
	best := 1.0
	for _, f := range r.Filters {
		if sel := s.FilterSel(r.Table, f); sel < best {
			best = sel
		}
	}
	return best
}

// JoinSelEstimate returns the textbook join selectivity estimate
// 1/max(NDV(left), NDV(right)) — the quantity that is error-prone in
// practice and that the robust algorithms refuse to trust.
func (s *Stats) JoinSelEstimate(q *query.Query, j query.Join) float64 {
	lt := q.Relations[j.LeftRel].Table
	rt := q.Relations[j.RightRel].Table
	nd := math.Max(s.NDV(lt, j.LeftCol), s.NDV(rt, j.RightCol))
	if nd < 1 {
		nd = 1
	}
	return 1 / nd
}

// TrueJoinSel measures the actual selectivity of a join from data: the
// fraction of the filtered cross product that satisfies the predicate.
// This is the ground truth qa that discovery algorithms converge to. A
// NULL key matches nothing, as in every join method; a join column that
// is not an int vector is an ErrNonIntColumn.
func TrueJoinSel(st *storage.Store, q *query.Query, j query.Join) (float64, error) {
	lOrds, err := filteredRows(st, q, j.LeftRel)
	if err != nil {
		return 0, err
	}
	rOrds, err := filteredRows(st, q, j.RightRel)
	if err != nil {
		return 0, err
	}
	if len(lOrds) == 0 || len(rOrds) == 0 {
		return 0, nil
	}
	lrel := st.MustRelation(q.Relations[j.LeftRel].Table)
	rrel := st.MustRelation(q.Relations[j.RightRel].Table)
	lc := lrel.ColumnIndex(j.LeftCol)
	rc := rrel.ColumnIndex(j.RightCol)
	if lc < 0 || rc < 0 {
		return 0, fmt.Errorf("stats: join column missing for join %d", j.ID)
	}
	lk, lerr := intColumn(lrel, lc, true)
	rk, rerr := intColumn(rrel, rc, true)
	if err := cmp.Or(lerr, rerr); err != nil {
		return 0, err
	}
	counts := make(map[int64]int64, len(rOrds))
	for _, o := range rOrds {
		if !rk.Null(o) {
			counts[rk.Ints[o]]++
		}
	}
	var matches int64
	for _, o := range lOrds {
		if !lk.Null(o) {
			matches += counts[lk.Ints[o]]
		}
	}
	return float64(matches) / (float64(len(lOrds)) * float64(len(rOrds))), nil
}

// evalFilter evaluates a filter predicate against a column value.
func evalFilter(f query.FilterPred, v expr.Value) bool {
	if v.IsNull() {
		return false
	}
	if f.IsIn() {
		for _, want := range f.Values {
			if v.K == expr.KindInt && v.I == want {
				return true
			}
		}
		return false
	}
	c := expr.Cmp{Op: f.Op, L: &expr.Const{Val: v}, R: &expr.Const{Val: expr.Int(f.Value)}}
	return c.Eval(nil).Truthy()
}

// filteredRows returns the ordinals of the query relation's rows that
// pass all of its filters.
func filteredRows(st *storage.Store, q *query.Query, rel int) ([]int, error) {
	r := &q.Relations[rel]
	relation := st.Relation(r.Table)
	if relation == nil {
		return nil, fmt.Errorf("stats: store missing relation %s", r.Table)
	}
	out := make([]int, relation.NumRows())
	for ord := range out {
		out[ord] = ord
	}
	for _, f := range r.Filters {
		ci := relation.ColumnIndex(f.Column)
		if ci < 0 {
			return nil, fmt.Errorf("stats: filter column %s.%s missing", r.Table, f.Column)
		}
		out = slices.DeleteFunc(out, func(ord int) bool { return !evalFilter(f, relation.Value(ord, ci)) })
	}
	return out, nil
}
