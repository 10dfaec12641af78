package exec

import (
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// DefaultBatchSize is the row capacity operators exchange per NextBatch
// call in the vectorized engine.
const DefaultBatchSize = 1024

// rowBatch is a batch of rows named by base-relation row ordinals: ords
// holds one int32 ordinal vector per base relation below the producer,
// in slot order (the producing plan subtree's scans, left to right; see
// slotOf), each at least n long. Row i of the batch is the tuple
// (ords[0][i], ords[1][i], …). No value travels with a row: an operator
// that needs a column — a join key, a residual, an inner filter — reads
// it at the ordinal through a colRef, so a joined row costs one int32
// per relation however wide the relations are.
//
// A count-only batch (ords == nil) carries just n: the output of a
// discarding root arena — the drive loop only counts root output, so the
// root join never materializes joined rows.
type rowBatch struct {
	ords [][]int32
	n    int
}

// colRef is one column read resolved when its operator is built: the
// slot of the column's base relation in a batch's ordinal tuple and the
// column's ordinal in that relation. A clean int column is read from
// its typed vector; a NULL key, or a column with no typed int vector,
// through Relation.Value. Every column kind runs through the same
// operators.
type colRef struct {
	slot  int
	col   int
	rel   *storage.Relation
	ints  []int64  // the KindInt column vector, nil if not columnar int
	nulls []uint64 // its NULL bitmap, nil when NULL-free
}

// newColRef resolves column col of query relation qrel, at slot.
func (e *Executor) newColRef(qrel, slot, col int) (colRef, error) {
	table := e.q.Relations[qrel].Table
	rel := e.store.Relation(table)
	if rel == nil {
		return colRef{}, fmt.Errorf("exec: store missing relation %s", table)
	}
	c := colRef{slot: slot, col: col, rel: rel}
	if v := rel.Col(col); v != nil && v.Kind == expr.KindInt {
		c.ints, c.nulls = v.Ints, v.NullWords()
	}
	return c, nil
}

// typed reports whether the value at ord sits in the int vector.
func (c *colRef) typed(ord int32) bool {
	return c.ints != nil && (c.nulls == nil || c.nulls[uint32(ord)>>6]>>(uint32(ord)&63)&1 == 0)
}

// value returns the column's value at row ordinal ord.
func (c *colRef) value(ord int32) expr.Value {
	if c.typed(ord) {
		return expr.Int(c.ints[ord])
	}
	return c.rel.Value(int(ord), c.col)
}

// key returns the hash key at ord — the value's joinKey, exactly what
// the tuple engine keys its table on — and false for NULL.
func (c *colRef) key(ord int32) (int64, bool) {
	if c.typed(ord) {
		return c.ints[ord], true
	}
	return joinKey(c.rel.Value(int(ord), c.col))
}

// clean returns the column's NULL-free int vector, or nil.
func (c *colRef) clean() []int64 {
	if c.nulls != nil {
		return nil
	}
	return c.ints
}

// equalAt is expr.Equal of column a at ordinal ao and column b at bo,
// comparing the int vectors directly when both values are typed.
func equalAt(a *colRef, ao int32, b *colRef, bo int32) bool {
	if a.typed(ao) && b.typed(bo) {
		return a.ints[ao] == b.ints[bo]
	}
	return expr.Equal(a.value(ao), b.value(bo))
}

// outBuf is a join operator's reusable output arena: one ordinal vector
// per output slot (the left child's slots, then the right's), carved
// from one flat backing array. The arena is recycled on every NextBatch
// call, so a consumer must copy what it keeps across batches (the hash
// build, sort input and NL inner copy ordinals into their own arenas).
type outBuf struct {
	buf  []int32
	ords [][]int32
	cap  int
	n    int
	// cur is the left (probe, outer) tuple the next emits join with.
	cur []int32
	b   rowBatch

	// discard turns the arena into a pure counter: the plan root's rows
	// are never read (the drive loop only counts them — §3.1 discards
	// Result rows), so the root join emits count-only batches.
	discard bool
}

func (o *outBuf) reset() { o.n = 0 }

// load makes row i of b the left tuple of the next emits.
func (o *outBuf) load(b *rowBatch, i int) {
	for s := range o.cur {
		o.cur[s] = b.ords[s][i]
	}
}

// emit appends the left tuple joined with the right tuple r.
func (o *outBuf) emit(r []int32) {
	if !o.discard {
		lw := len(o.cur)
		for s, v := range o.cur {
			o.ords[s][o.n] = v
		}
		for s, v := range r {
			o.ords[lw+s][o.n] = v
		}
	}
	o.n++
}

func (o *outBuf) full() bool { return o.n >= o.cap }

// take returns the buffered rows as a batch.
func (o *outBuf) take() *rowBatch {
	o.b = rowBatch{n: o.n}
	if !o.discard {
		o.b.ords = o.ords
	}
	return &o.b
}

// bufPool recycles the vectorized engine's per-run scratch buffers
// across execution attempts: int32 vectors (selection and ordinal
// vectors, sort input arenas, NL inners), join output arenas and
// hash-build tables. A plain mutex-guarded freelist beats sync.Pool
// here — buffers are checked out a handful of times per query, never
// concurrently contended on the sequential path, and the typed slices
// avoid interface boxing on every get/put.
type bufPool struct {
	mu     sync.Mutex
	ints   [][]int32
	outs   []*outBuf
	tables []*graceTable
}

// poolCap bounds each freelist.
const poolCap = 64

// take removes and returns the most recently returned entry of list
// that fits, or reports false.
func take[T any](p *bufPool, list *[]T, fits func(T) bool) (T, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := *list
	for i := len(l) - 1; i >= 0; i-- {
		if v := l[i]; fits(v) {
			*list = append(l[:i], l[i+1:]...)
			return v, true
		}
	}
	var zero T
	return zero, false
}

// give returns v to list unless the list is full.
func give[T any](p *bufPool, list *[]T, v T) {
	p.mu.Lock()
	if len(*list) < poolCap {
		*list = append(*list, v)
	}
	p.mu.Unlock()
}

// getInts returns an empty int32 vector of at least the capacity.
func (p *bufPool) getInts(capacity int) []int32 {
	if s, ok := take(p, &p.ints, func(s []int32) bool { return cap(s) >= capacity }); ok {
		return s[:0]
	}
	return make([]int32, 0, capacity)
}

func (p *bufPool) putInts(s []int32) {
	if s != nil {
		give(p, &p.ints, s[:0])
	}
}

// getOut returns an output arena for capacity rows joining lw-wide left
// tuples with rw-wide right tuples.
func (p *bufPool) getOut(lw, rw, capacity int) *outBuf {
	w := lw + rw
	o, ok := take(p, &p.outs, func(o *outBuf) bool { return cap(o.buf) >= w*capacity })
	if !ok {
		o = &outBuf{buf: make([]int32, w*capacity)}
	}
	o.buf = o.buf[:w*capacity]
	o.ords = o.ords[:0]
	for s := 0; s < w; s++ {
		o.ords = append(o.ords, o.buf[s*capacity:(s+1)*capacity:(s+1)*capacity])
	}
	o.cur = append(o.cur[:0], make([]int32, lw)...)
	o.cap, o.n, o.discard = capacity, 0, false
	return o
}

func (p *bufPool) putOut(o *outBuf) {
	if o != nil {
		give(p, &p.outs, o)
	}
}

// getTable returns an empty hash-build table for w-wide tuples.
func (p *bufPool) getTable(w int) *graceTable {
	t, ok := take(p, &p.tables, func(*graceTable) bool { return true })
	if !ok {
		t = newGraceTable()
	}
	for i := range t.parts {
		t.parts[i].w = w
	}
	return t
}

// putTable empties t and recycles it. Only the table's owner returns
// it: morsel clones share it read-only.
func (p *bufPool) putTable(t *graceTable) {
	if t != nil {
		t.reset()
		give(p, &p.tables, t)
	}
}

// batchOperator is the vectorized iterator interface: NextBatch returns
// the next non-empty batch, io.EOF at end of stream.
type batchOperator interface {
	Open() error
	NextBatch() (*rowBatch, error)
	Close() error
}

// markDiscardRoot flips the plan root's output arena into count-only
// mode. Result rows of the root are discarded by every consumer (the
// drive loop just counts them), so materializing the joined ordinals is
// pure overhead. Lockstep runs (faults armed) skip this: the tuple
// engine materializes, and lockstep must replay its exact allocation-
// free observables — charge order is unaffected either way, but we keep
// the fault path maximally conservative.
func markDiscardRoot(op batchOperator) {
	switch o := op.(type) {
	case *vecHashJoin:
		o.out.discard = true
	case *vecMergeJoin:
		o.out.discard = true
	case *vecNLJoin:
		o.out.discard = true
	case *vecIndexNLJoin:
		o.out.discard = true
	}
}

// vecEngine builds the vectorized engine's batch operators at batch
// capacity cap.
type vecEngine struct {
	e     *Executor
	meter *Meter
	cap   int
}

func (v vecEngine) scan(s scanSpec) batchOperator {
	if s.index {
		return &vecIndexScan{rel: s.rel, rows: s.rows, filters: s.filters, meter: v.meter, ex: v.e, cls: s.cls, cap: v.cap}
	}
	return &vecSeqScan{
		rel:     s.rel,
		filters: s.filters,
		kernels: compileKernels(s.rel, s.filters),
		meter:   v.meter,
		ex:      v.e,
		cls:     s.cls,
		cap:     v.cap,
	}
}

func (v vecEngine) join(n *plan.Node, j joinSpec, left, right batchOperator) batchOperator {
	base := vecJoinBase{
		e:     v.e,
		meter: v.meter,
		refs:  joinRefs{preds: j.preds, rowKey: j.preds[0].l.ints == nil || j.preds[0].r.ints == nil},
		left:  left,
		right: right,
		rw:    n.Right.NumRels(),
	}
	out := v.e.pool.getOut(n.Left.NumRels(), base.rw, v.cap)
	switch n.Join.Method {
	case plan.HashJoin:
		return &vecHashJoin{vecJoinBase: base, clsBuild: j.cls[0], clsProbe: j.cls[1], clsOut: j.cls[2], out: out}
	case plan.MergeJoin:
		return &vecMergeJoin{vecJoinBase: base, clsMerge: j.cls[0], clsOut: j.cls[1], out: out}
	case plan.NLJoin:
		return &vecNLJoin{vecJoinBase: base, clsMat: j.cls[0], clsPair: j.cls[1], clsOut: j.cls[2], out: out}
	default:
		return &vecIndexNLJoin{
			vecJoinBase: base,
			relIdx:      j.inner,
			rel:         j.rel,
			filters:     j.filters,
			kernels:     compileKernels(j.rel, j.filters),
			clsDescend:  j.cls[0],
			clsFetch:    j.cls[1],
			clsOut:      j.cls[2],
			out:         out,
			ls:          v.e.faults != nil,
		}
	}
}

// joinRefs is a vectorized join's predicates, oriented by build: their
// column references read the children's tuples. As in joinSpec, the
// first predicate is the physical key and the rest are residuals.
type joinRefs struct {
	preds []joinPred
	// rowKey marks a physical key read from rows on either side: its
	// hash or index candidates share a joinKey, not necessarily a value,
	// and candidateMatch rechecks them.
	rowKey bool
}

// residualsMatch checks the predicates beyond the physical key on a
// left and a right tuple.
func (jr *joinRefs) residualsMatch(l, r []int32) bool {
	for k := 1; k < len(jr.preds); k++ {
		a, b := &jr.preds[k].l, &jr.preds[k].r
		if !equalAt(a, l[a.slot], b, r[b.slot]) {
			return false
		}
	}
	return true
}

// candidateMatch checks a hash or index candidate pair: the physical
// key again when it was read from rows, then the residuals.
func (jr *joinRefs) candidateMatch(l, r []int32) bool {
	a, b := &jr.preds[0].l, &jr.preds[0].r
	return (!jr.rowKey || equalAt(a, l[a.slot], b, r[b.slot])) && jr.residualsMatch(l, r)
}

// vecJoinBase is the batch engine's counterpart of joinBase: shared
// join state plus the run-time selectivity monitor.
type vecJoinBase struct {
	e           *Executor
	meter       *Meter
	refs        joinRefs
	left, right batchOperator
	// rw is the width of the right child's tuples.
	rw  int
	obs JoinObs
	// exact marks that both inputs were fully consumed, making the
	// observed selectivity exact.
	exact bool
}

// observations implements joinObserver, recursing into children.
func (b *vecJoinBase) observations(into map[int]float64) {
	if b.exact {
		for _, p := range b.refs.preds {
			into[p.id] = b.obs.Sel()
		}
	}
	collectObservations(b.left, into)
	if b.right != nil {
		collectObservations(b.right, into)
	}
}
