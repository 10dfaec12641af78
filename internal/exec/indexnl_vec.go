package exec

import (
	"io"

	"repro/internal/storage"
)

// vecIndexNLJoin streams outer batches, probing the inner relation's
// index per outer row. In the default batched mode the fetch
// charges of one probe's matches bill as one ChargeN before filtering;
// in lockstep mode (armed faults) fetch and output charges interleave
// per match exactly like the tuple engine, so kill points replay bit
// for bit.
type vecIndexNLJoin struct {
	vecJoinBase
	relIdx  int // the inner's query relation index
	rel     *storage.Relation
	filters []boundFilter
	// kernels is filters compiled against rel's column vectors, or nil
	// (see compileKernels).
	kernels []colKernel
	// clsDescend carries the whole per-outer-row descent charge
	// (IdxDescend·log₂(N+2)) as its class constant.
	clsDescend, clsFetch, clsOut int
	out                          *outBuf
	ls                           bool

	pb      *rowBatch
	pi      int
	matches []int32
	mi      int
	have    bool
	done    bool
}

func (j *vecIndexNLJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	j.pb, j.pi = nil, 0
	j.have = false
	j.done = false
	return nil
}

// observations implements joinObserver. The inner's filtered
// cardinality is counted only here, for an exact observation — a
// statistics lookup, not execution work, hence uncharged.
func (j *vecIndexNLJoin) observations(into map[int]float64) {
	if j.exact {
		j.obs.RightRows = j.e.innerCount(j.relIdx, j.rel, j.filters)
	}
	j.vecJoinBase.observations(into)
}

func (j *vecIndexNLJoin) NextBatch() (*rowBatch, error) {
	if j.done {
		return nil, io.EOF
	}
	j.out.reset()
	key := &j.refs.preds[0].l
	for {
		if !j.have {
			if j.pb == nil || j.pi >= j.pb.n {
				b, err := j.left.NextBatch()
				if err == io.EOF {
					j.exact = true
					j.done = true
					if j.out.n > 0 {
						return j.out.take(), nil
					}
					return nil, io.EOF
				}
				if err != nil {
					return nil, err
				}
				j.pb, j.pi = b, 0
			}
			i := j.pi
			j.pi++
			j.obs.LeftRows++
			// One index descent per outer row (charged before the null
			// check, like the tuple engine).
			if _, err := j.meter.ChargeN(j.clsDescend, 1); err != nil {
				return nil, err
			}
			k, ok := key.key(j.pb.ords[key.slot][i])
			if !ok {
				continue
			}
			j.out.load(j.pb, i)
			j.matches = j.rel.Lookup(j.refs.preds[0].r.col, k)
			j.mi = 0
			j.have = true
			if !j.ls {
				// Batched mode: bill every random fetch of this probe up
				// front; the counts at any kill equal the tuple engine's
				// only for completed runs, which is all that is observable
				// without armed faults.
				if _, err := j.meter.ChargeN(j.clsFetch, int64(len(j.matches))); err != nil {
					return nil, err
				}
			}
		}
		if j.ls {
			for j.mi < len(j.matches) {
				inner := j.matches[j.mi : j.mi+1]
				j.mi++
				if _, err := j.meter.ChargeN(j.clsFetch, 1); err != nil {
					return nil, err
				}
				if !j.innerMatches(inner) {
					continue
				}
				if _, err := j.meter.ChargeN(j.clsOut, 1); err != nil {
					return nil, err
				}
				j.obs.OutRows++
				j.out.emit(inner)
				if j.out.full() {
					return j.out.take(), nil
				}
			}
			j.have = false
			continue
		}
		gathered := int64(0)
		for j.mi < len(j.matches) && !j.out.full() {
			inner := j.matches[j.mi : j.mi+1]
			j.mi++
			if !j.innerMatches(inner) {
				continue
			}
			j.out.emit(inner)
			gathered++
		}
		if gathered > 0 {
			if _, err := j.meter.ChargeN(j.clsOut, gathered); err != nil {
				return nil, err
			}
			j.obs.OutRows += gathered
		}
		if j.out.full() {
			return j.out.take(), nil
		}
		j.have = false
	}
}

// innerMatches applies the inner relation's filters and the join's
// predicates to a fetched inner tuple (its one row ordinal).
func (j *vecIndexNLJoin) innerMatches(inner []int32) bool {
	return matchOrd(j.rel, j.filters, j.kernels, inner[0]) && j.refs.candidateMatch(j.out.cur, inner)
}

func (j *vecIndexNLJoin) Close() error {
	j.e.pool.putOut(j.out)
	j.out = nil
	return j.left.Close()
}
