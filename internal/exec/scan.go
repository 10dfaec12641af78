package exec

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
)

func (e *Executor) buildScan(n *plan.Node, meter *Meter, res *Result) (operator, *schema, error) {
	rel := n.Scan.Rel
	r := &e.q.Relations[rel]
	relation := e.store.Relation(r.Table)
	if relation == nil {
		return nil, nil, fmt.Errorf("exec: store missing relation %s", r.Table)
	}
	sch := e.relSchema(rel)
	seq := func() (operator, *schema, error) {
		return &seqScan{
			rel:     relation,
			filters: e.compileFilters(rel),
			meter:   meter,
			params:  e,
			cls:     meter.Class(e.params.SeqTuple),
		}, sch, nil
	}
	switch n.Scan.Method {
	case plan.SeqScan:
		return seq()
	case plan.IndexScan:
		// Degradation ladder rung 1: a persistent index-probe fault
		// downgrades the access path to a sequential scan — slower but
		// index-free — instead of failing the execution. Transient probe
		// faults surface as errors and go through the retry policy.
		if ferr := e.faults.Check(faultinject.SiteIndexProbe); ferr != nil {
			if faultinject.IsTransient(ferr) {
				return nil, nil, opError("indexscan", ferr)
			}
			res.Degraded = append(res.Degraded,
				fmt.Sprintf("indexscan→seqscan rel=%s (%v)", r.Alias, ferr))
			return seq()
		}
		op, err := e.buildIndexScan(rel, relation, meter)
		if err != nil {
			return nil, nil, err
		}
		return op, sch, nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown scan method")
	}
}

// seqScan reads every row, charging SeqTuple each, and applies filters.
type seqScan struct {
	rel     *storage.Relation
	filters []boundFilter
	meter   *Meter
	params  *Executor
	cls     int
	pos     int
}

func (s *seqScan) Open() error {
	s.pos = 0
	return nil
}

func (s *seqScan) Next() (expr.Row, error) {
	for s.pos < s.rel.NumRows() {
		if s.pos&cancelCheckMask == 0 {
			if ferr := s.params.faults.Check(faultinject.SiteScanTuple); ferr != nil {
				return nil, opError("seqscan", ferr)
			}
		}
		ord := s.pos
		s.pos++
		if _, err := s.meter.ChargeN(s.cls, 1); err != nil {
			return nil, err
		}
		if matchAll(s.filters, s.rel, ord) {
			return s.rel.Row(ord), nil
		}
	}
	return nil, io.EOF
}

func (s *seqScan) Close() error { return nil }

// planIndexScan selects the driving predicate: the indexed range
// filter whose probe matches the fewest rows (the executor's analogue of
// the cost model's best-single-filter selectivity). It probes with the
// [lo, hi] bounds compileFilters derives; IN-lists, NE and the empty
// LT MinInt64 / GT MaxInt64 are not ranges and stay residuals. An empty
// probe is a valid, and the best, driver. It returns the matching row
// ordinals and the residual filters, all but the driver. Shared by the
// tuple and vectorized builders.
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

func (e *Executor) buildIndexScan(rel int, relation *storage.Relation, meter *Meter) (operator, error) {
	rows, filters, err := e.planIndexScan(rel, relation)
	if err != nil {
		return nil, err
	}
	return &indexScan{
		rel:     relation,
		rows:    rows,
		filters: filters,
		meter:   meter,
		params:  e,
		cls:     meter.Class(e.params.IdxTuple),
	}, nil
}

// indexScan charges one descent plus IdxTuple per fetched row, applying
// residual filters after the fetch.
type indexScan struct {
	rel     *storage.Relation
	rows    []int32
	filters []boundFilter
	meter   *Meter
	params  *Executor
	cls     int
	pos     int
	opened  bool
}

func (s *indexScan) Open() error {
	s.pos = 0
	s.opened = true
	if ferr := s.params.faults.Check(faultinject.SiteIndexProbe); ferr != nil {
		return opError("indexscan", ferr)
	}
	return s.meter.Charge(s.params.params.IdxDescend * log2g(float64(s.rel.NumRows())))
}

func (s *indexScan) Next() (expr.Row, error) {
	for s.pos < len(s.rows) {
		ord := int(s.rows[s.pos])
		s.pos++
		if _, err := s.meter.ChargeN(s.cls, 1); err != nil {
			return nil, err
		}
		if matchAll(s.filters, s.rel, ord) {
			return s.rel.Row(ord), nil
		}
	}
	return nil, io.EOF
}

func (s *indexScan) Close() error { return nil }
