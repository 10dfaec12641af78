package exec

import (
	"io"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/storage"
)

// Kernel shapes a compiled predicate can take over an int column.
const (
	kernelRange = iota // lo ≤ v ≤ hi as one unsigned compare
	kernelNE           // v != ne
	kernelIn           // IN-list membership
)

// colKernel is one filter predicate compiled against a typed column
// vector: the scan hot loop runs it over contiguous int64 values with
// no per-row type dispatch, no row pointer chase, and no calls. NULLs
// are masked through the column's bitmap (a NULL row never matches,
// matching boundFilter.eval).
type colKernel struct {
	ints  []int64
	nulls []uint64 // nil when the column has no NULLs
	kind  int8
	lo    uint64 // kernelRange: lo, with span = hi-lo (unsigned trick)
	span  uint64
	ne    int64
	in    map[int64]bool
}

// compileKernels compiles the filter conjunction against the
// relation's column vectors. It returns nil — sending the scan to
// matchAll — unless every filter lands on a clean int column: partial
// vectorization would still touch every row and just add bookkeeping.
func compileKernels(rel *storage.Relation, filters []boundFilter) []colKernel {
	if len(filters) == 0 {
		return nil
	}
	ks := make([]colKernel, 0, len(filters))
	for i := range filters {
		f := &filters[i]
		c := rel.Col(f.col)
		if c == nil || c.Kind != expr.KindInt {
			return nil
		}
		k := colKernel{ints: c.Ints, nulls: c.NullWords()}
		switch {
		case f.ranged:
			k.kind = kernelRange
			k.lo = uint64(f.lo)
			k.span = uint64(f.hi) - uint64(f.lo)
		case f.in != nil:
			k.kind = kernelIn
			k.in = f.in
		case f.op == expr.NE:
			k.kind = kernelNE
			k.ne = f.val.I
		default:
			return nil
		}
		ks = append(ks, k)
	}
	return ks
}

// match evaluates the kernel on one absolute row ordinal (the refine
// path for conjunctions; the dominant single-predicate case goes
// through fill's tight loops instead).
func (k *colKernel) match(i int) bool {
	if k.nulls != nil && k.nulls[uint(i)>>6]>>(uint(i)&63)&1 != 0 {
		return false
	}
	v := k.ints[i]
	switch k.kind {
	case kernelRange:
		return uint64(v)-k.lo <= k.span
	case kernelNE:
		return v != k.ne
	default:
		return k.in[v]
	}
}

// fill runs the kernel over the window [base, end), writing the row
// ordinals that match into sel. The range shape — the common
// single-predicate scan — runs as a two-instruction compare with an
// unconditional selection store, so the loop carries no data-dependent
// store branch.
func (k *colKernel) fill(base, end int, sel []int32) []int32 {
	n := 0
	if k.kind == kernelRange && k.nulls == nil {
		lo, span, vals := k.lo, k.span, k.ints
		for i := base; i < end; i++ {
			sel[n] = int32(i)
			if uint64(vals[i])-lo <= span {
				n++
			}
		}
		return sel[:n]
	}
	for i := base; i < end; i++ {
		sel[n] = int32(i)
		if k.match(i) {
			n++
		}
	}
	return sel[:n]
}

// refine re-runs the kernel over an existing selection of row
// ordinals, compacting it in place (conjunction predicates after the
// first).
func (k *colKernel) refine(sel []int32) []int32 {
	n := 0
	for _, s := range sel {
		if k.match(int(s)) {
			sel[n] = s
			n++
		}
	}
	return sel[:n]
}

// matchOrd reports whether row ord of rel passes every filter: through
// the compiled column kernels when there are any, else through Value.
func matchOrd(rel *storage.Relation, filters []boundFilter, kernels []colKernel, ord int32) bool {
	if kernels == nil {
		return matchAll(filters, rel, int(ord))
	}
	for i := range kernels {
		if !kernels[i].match(int(ord)) {
			return false
		}
	}
	return true
}

// vecSeqScan reads the relation in windows of up to cap rows: each
// batch is the window's row ordinals, one ChargeN bills the whole
// window, and filters narrow it to the ordinals that pass, through
// compiled columnar kernels (value-at-a-time fallback through
// Relation.Value when a filter column is not a clean int vector). No
// value is read unless a filter needs it.
//
// With cursor set (morsel mode) the window start is claimed from the
// shared atomic scan cursor instead of private state, so any number of
// worker clones can pull disjoint morsels from one scan.
type vecSeqScan struct {
	rel     *storage.Relation
	filters []boundFilter
	kernels []colKernel
	meter   *Meter
	ex      *Executor
	cls     int
	cap     int
	pos     int
	cursor  *atomic.Int64
	// sel is the pooled ordinal vector batches are written into; slot
	// backs the batches' one-slot ords.
	sel  []int32
	slot [1][]int32
	out  rowBatch
}

func (s *vecSeqScan) Open() error {
	s.pos = 0
	if s.sel == nil {
		s.sel = s.ex.pool.getInts(s.cap)
	}
	return nil
}

// batch returns the selected ordinals as the scan's output batch.
func (s *vecSeqScan) batch(sel []int32) *rowBatch {
	s.slot[0] = sel
	s.out = rowBatch{ords: s.slot[:], n: len(sel)}
	return &s.out
}

func (s *vecSeqScan) NextBatch() (*rowBatch, error) {
	total := s.rel.NumRows()
	for {
		var pos int
		if s.cursor != nil {
			pos = int(s.cursor.Add(int64(s.cap))) - s.cap
		} else {
			pos = s.pos
		}
		if pos >= total {
			return nil, io.EOF
		}
		end := pos + s.cap
		if end > total {
			end = total
		}
		s.pos = end
		if s.ex.faults != nil {
			// Lockstep: fire the scan-tuple site at fixed absolute row
			// positions (every 64th row).
			for p := pos; p < end; p++ {
				if p&cancelCheckMask == 0 {
					if ferr := s.ex.faults.Check(faultinject.SiteScanTuple); ferr != nil {
						return nil, opError("seqscan", ferr)
					}
				}
			}
		}
		if _, err := s.meter.ChargeN(s.cls, int64(end-pos)); err != nil {
			return nil, err
		}
		sel := s.sel[:end-pos]
		if len(s.filters) == 0 {
			for i := range sel {
				sel[i] = int32(pos + i)
			}
			return s.batch(sel), nil
		}
		if s.kernels != nil {
			sel = s.kernels[0].fill(pos, end, sel)
			for i := 1; i < len(s.kernels) && len(sel) > 0; i++ {
				sel = s.kernels[i].refine(sel)
			}
		} else {
			k := 0
			for i := pos; i < end; i++ {
				sel[k] = int32(i)
				if matchAll(s.filters, s.rel, i) {
					k++
				}
			}
			sel = sel[:k]
		}
		if len(sel) > 0 {
			return s.batch(sel), nil
		}
		// Whole window filtered out; claim the next one.
	}
}

func (s *vecSeqScan) Close() error {
	s.ex.pool.putInts(s.sel)
	s.sel = nil
	return nil
}

// vecIndexScan emits the probed ordinals in windows, charging one
// descent at Open and IdxTuple per fetched row
// in batches; residual filters narrow a window to the ordinals that
// pass, in a pooled vector, so steady-state batches allocate nothing.
// An unfiltered window is the probe's ordinal list itself.
type vecIndexScan struct {
	rel     *storage.Relation
	rows    []int32
	filters []boundFilter
	meter   *Meter
	ex      *Executor
	cls     int
	cap     int
	pos     int
	sel     []int32
	slot    [1][]int32
	out     rowBatch
}

func (s *vecIndexScan) Open() error {
	s.pos = 0
	if len(s.filters) > 0 && s.sel == nil {
		s.sel = s.ex.pool.getInts(s.cap)
	}
	if ferr := s.ex.faults.Check(faultinject.SiteIndexProbe); ferr != nil {
		return opError("indexscan", ferr)
	}
	return s.meter.Charge(s.ex.params.IdxDescend * log2g(float64(s.rel.NumRows())))
}

func (s *vecIndexScan) NextBatch() (*rowBatch, error) {
	for s.pos < len(s.rows) {
		end := s.pos + s.cap
		if end > len(s.rows) {
			end = len(s.rows)
		}
		window := s.rows[s.pos:end]
		if _, err := s.meter.ChargeN(s.cls, int64(len(window))); err != nil {
			return nil, err
		}
		s.pos = end
		if len(s.filters) > 0 {
			sel := s.sel[:0]
			for _, o := range window {
				if matchAll(s.filters, s.rel, int(o)) {
					sel = append(sel, o)
				}
			}
			window = sel
		}
		if len(window) > 0 {
			s.slot[0] = window
			s.out = rowBatch{ords: s.slot[:], n: len(window)}
			return &s.out, nil
		}
	}
	return nil, io.EOF
}

func (s *vecIndexScan) Close() error {
	s.ex.pool.putInts(s.sel)
	s.sel = nil
	return nil
}
