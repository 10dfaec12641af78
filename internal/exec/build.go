package exec

import (
	"fmt"
	"slices"

	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
)

// scanSpec is a scan node as build decided it.
type scanSpec struct {
	rel     *storage.Relation
	filters []boundFilter
	// index marks an index scan: rows are its probed row ordinals and
	// filters its residuals.
	index bool
	rows  []int32
	cls   int
}

// joinSpec is a join node as build decided it.
type joinSpec struct {
	// preds are the node's predicates oriented to its children. The
	// first is the physical (hash, merge, index) key; the rest are
	// residuals.
	preds []joinPred
	// cls are the node's meter classes in registration order: build,
	// probe and output (hash); merge and output (merge); materialize,
	// pair and output (NL); descent, fetch and output (index NL).
	cls [3]int
	// inner, rel and filters are an index-NL join's inner: its query
	// relation, its stored relation and its filters.
	inner   int
	rel     *storage.Relation
	filters []boundFilter
}

// joinPred is one join predicate oriented to a join's children: l reads
// a column of the left child's tuples, r one of the right child's.
type joinPred struct {
	id   int
	l, r colRef
}

// build compiles plan node n into a batch operator tree. It takes every
// plan-level decision: the store lookup and its refusal, the
// index-probe degradation rung, index-scan probing, filter compilation,
// meter class registration, join-predicate orientation and the index-NL
// index check; scan and join only turn each decided node into its
// operator. Meter classes register in plan build order (children before
// their join, the left child first); res collects the degradation notes
// taken on the way. An index-NL join's inner is probed, not built.
func (v vecEngine) build(n *plan.Node, res *Result) (batchOperator, error) {
	e := v.e
	if n.IsScan() {
		s, err := e.decideScan(n, v.meter, res)
		if err != nil {
			return nil, err
		}
		return v.scan(s), nil
	}
	left, err := v.build(n.Left, res)
	if err != nil {
		return nil, err
	}
	var right batchOperator
	switch n.Join.Method {
	case plan.HashJoin, plan.MergeJoin, plan.NLJoin:
		if right, err = v.build(n.Right, res); err != nil {
			return nil, err
		}
	case plan.IndexNLJoin:
	default:
		return nil, fmt.Errorf("exec: unknown join method")
	}
	j, err := e.decideJoin(n, v.meter)
	if err != nil {
		return nil, err
	}
	return v.join(n, j, left, right), nil
}

// decideScan decides a scan node: its stored relation, its access path
// and its filters, and registers its meter class.
func (e *Executor) decideScan(n *plan.Node, meter *Meter, res *Result) (scanSpec, error) {
	rel := n.Scan.Rel
	r := &e.q.Relations[rel]
	s := scanSpec{rel: e.store.Relation(r.Table)}
	if s.rel == nil {
		return s, fmt.Errorf("exec: store missing relation %s", r.Table)
	}
	switch n.Scan.Method {
	case plan.SeqScan:
	case plan.IndexScan:
		// Degradation ladder rung 1: a persistent index-probe fault
		// downgrades the access path to a sequential scan — slower but
		// index-free — instead of failing the execution. Transient probe
		// faults surface as errors and go through the retry policy.
		ferr := e.faults.Check(faultinject.SiteIndexProbe)
		if ferr == nil {
			rows, filters, err := e.planIndexScan(rel, s.rel)
			if err != nil {
				return s, err
			}
			s.index, s.rows, s.filters = true, rows, filters
			s.cls = meter.Class(e.params.IdxTuple)
			return s, nil
		}
		if faultinject.IsTransient(ferr) {
			return s, opError("indexscan", ferr)
		}
		res.Degraded = append(res.Degraded,
			fmt.Sprintf("indexscan→seqscan rel=%s (%v)", r.Alias, ferr))
	default:
		return s, fmt.Errorf("exec: unknown scan method")
	}
	s.filters = e.compileFilters(rel)
	s.cls = meter.Class(e.params.SeqTuple)
	return s, nil
}

// planIndexScan selects the driving predicate: the indexed range
// filter whose probe matches the fewest rows (the executor's analogue of
// the cost model's best-single-filter selectivity). It probes with the
// [lo, hi] bounds compileFilters derives; IN-lists, NE and the empty
// LT MinInt64 / GT MaxInt64 are not ranges and stay residuals. An empty
// probe is a valid, and the best, driver. It returns the matching row
// ordinals and the residual filters, all but the driver.
func (e *Executor) planIndexScan(rel int, relation *storage.Relation) ([]int32, []boundFilter, error) {
	r := &e.q.Relations[rel]
	if len(r.Filters) == 0 {
		return nil, nil, fmt.Errorf("exec: index scan on %s without filters", r.Alias)
	}
	filters := e.compileFilters(rel)
	bestIdx := -1
	var bestRows []int32
	for i, f := range filters {
		if !f.ranged || !relation.HasIndex(f.col) {
			continue
		}
		rows := relation.RangeLookup(f.col, f.lo, f.hi)
		if bestIdx < 0 || len(rows) < len(bestRows) {
			bestIdx, bestRows = i, rows
		}
	}
	if bestIdx < 0 {
		return nil, nil, fmt.Errorf("exec: no usable index for %s", r.Alias)
	}
	return bestRows, slices.Delete(filters, bestIdx, bestIdx+1), nil
}

// decideJoin decides a join node whose children are built: it orients
// the predicates, checks an index-NL join's index and compiles its inner
// filters, and registers the node's meter classes.
func (e *Executor) decideJoin(n *plan.Node, meter *Meter) (joinSpec, error) {
	preds, err := e.orient(n)
	if err != nil {
		return joinSpec{}, err
	}
	j := joinSpec{preds: preds}
	p := &e.params
	switch n.Join.Method {
	case plan.HashJoin:
		j.cls = [3]int{meter.Class(p.HashBuild), meter.Class(p.HashProbe), meter.Class(p.Tuple)}
	case plan.MergeJoin:
		j.cls = [3]int{meter.Class(p.Merge), meter.Class(p.Tuple)}
	case plan.NLJoin:
		j.cls = [3]int{meter.Class(p.Mat), meter.Class(p.NLPair), meter.Class(p.Tuple)}
	case plan.IndexNLJoin:
		key := &preds[0].r
		if !key.rel.HasIndex(key.col) {
			return j, fmt.Errorf("exec: no index on %s column %d for INL join", key.rel.Name, key.col)
		}
		j.inner, j.rel = n.Right.Scan.Rel, key.rel
		j.filters = e.compileFilters(j.inner)
		j.cls = [3]int{
			meter.Class(p.IdxDescend * log2g(float64(j.rel.NumRows()))),
			meter.Class(p.IdxTuple),
			meter.Class(p.Tuple),
		}
	}
	return j, nil
}

// orient resolves join node n's predicates to column references into
// its children's tuples, each as written or, failing that, the other
// way round. It refuses a predicate whose columns are below the
// children in neither orientation, and one whose two columns hold a
// string and a non-NULL non-string between them, in one column or
// across both: no join method has an answer for comparing the two, and
// a merge join sorts each column by comparing its values.
func (e *Executor) orient(n *plan.Node) ([]joinPred, error) {
	preds := make([]joinPred, len(n.Join.JoinIDs))
	for i, id := range n.Join.JoinIDs {
		j := e.q.Joins[id]
		lrel, rrel := j.LeftRel, j.RightRel
		lcol, rcol := e.colIndex(lrel, j.LeftCol), e.colIndex(rrel, j.RightCol)
		ls, rs := slotOf(n.Left, lrel), slotOf(n.Right, rrel)
		if ls < 0 || rs < 0 {
			lrel, rrel, lcol, rcol = rrel, lrel, rcol, lcol
			ls, rs = slotOf(n.Left, lrel), slotOf(n.Right, rrel)
		}
		if ls < 0 || rs < 0 || lcol < 0 || rcol < 0 {
			return nil, fmt.Errorf("exec: join %d columns not found in children", id)
		}
		var err error
		if preds[i].l, err = e.newColRef(lrel, ls, lcol); err != nil {
			return nil, err
		}
		if preds[i].r, err = e.newColRef(rrel, rs, rcol); err != nil {
			return nil, err
		}
		lstr, lother := preds[i].l.rel.Holds(lcol)
		rstr, rother := preds[i].r.rel.Holds(rcol)
		if (lstr || rstr) && (lother || rother) {
			return nil, fmt.Errorf("exec: join %d compares strings with non-strings", id)
		}
		preds[i].id = id
	}
	return preds, nil
}

// colIndex is the ordinal of column name in query relation rel's table,
// or -1.
func (e *Executor) colIndex(rel int, name string) int {
	return e.q.Cat.MustTable(e.q.Relations[rel].Table).ColumnIndex(name)
}

// slotOf returns the slot of query relation rel in the output tuples of
// plan subtree n — its position among n's scans, left to right — or -1
// when rel is not below n.
func slotOf(n *plan.Node, rel int) int {
	switch {
	case n.Rels>>uint(rel)&1 == 0:
		return -1
	case n.IsScan():
		return 0
	}
	if s := slotOf(n.Left, rel); s >= 0 {
		return s
	}
	return n.Left.NumRels() + slotOf(n.Right, rel)
}
