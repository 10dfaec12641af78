package exec

import (
	"io"

	"repro/internal/expr"
	"repro/internal/storage"
)

// indexNLJoin streams the outer child, probing the inner base relation's
// index per row; inner filters apply after the fetch (the index
// serves the join key only).
type indexNLJoin struct {
	joinBase
	relIdx  int // the inner's query relation index
	rel     *storage.Relation
	filters []boundFilter
	// clsDescend carries the whole per-outer-row descent charge
	// (IdxDescend·log₂(N+2)) as its class constant, so descents batch
	// like any other per-tuple cost.
	clsDescend, clsFetch, clsOut int

	cur     expr.Row
	matches []int32
	mi      int
	have    bool
}

func (j *indexNLJoin) Open() error { return j.left.Open() }

// observations implements joinObserver; see vecIndexNLJoin.observations.
func (j *indexNLJoin) observations(into map[int]float64) {
	if j.exact {
		j.obs.RightRows = j.e.innerCount(j.relIdx, j.rel, j.filters)
	}
	j.joinBase.observations(into)
}

func (j *indexNLJoin) Next() (expr.Row, error) {
	for {
		if !j.have {
			row, err := j.left.Next()
			if err == io.EOF {
				j.exact = true
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			j.obs.LeftRows++
			// One index descent per outer row.
			if _, err := j.meter.ChargeN(j.clsDescend, 1); err != nil {
				return nil, err
			}
			j.cur = row
			k, ok := joinKey(row[j.jc.leftPos[0]])
			if !ok {
				continue
			}
			j.matches = j.rel.Lookup(j.jc.rightPos[0], k)
			j.mi = 0
			j.have = true
		}
		for j.mi < len(j.matches) {
			ord := int(j.matches[j.mi])
			j.mi++
			// Random fetch per matched (pre-filter) row.
			if _, err := j.meter.ChargeN(j.clsFetch, 1); err != nil {
				return nil, err
			}
			inner := j.rel.Row(ord)
			if !matchAll(j.filters, j.rel, ord) || !sameKey(j.cur[j.jc.leftPos[0]], inner[j.jc.rightPos[0]]) ||
				!j.jc.residualsMatch(j.cur, inner) {
				continue
			}
			if _, err := j.meter.ChargeN(j.clsOut, 1); err != nil {
				return nil, err
			}
			j.obs.OutRows++
			return joinRows(j.cur, inner), nil
		}
		j.have = false
	}
}

func (j *indexNLJoin) Close() error { return j.left.Close() }
