package exec

import (
	"io"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/storage"
)

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
