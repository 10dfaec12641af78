package exec

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/expr"
	"repro/internal/faultinject"
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
// across driveVec attempts: int32 vectors (selection and ordinal
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

// driveVec runs one batch-at-a-time execution attempt. Semantics are
// pinned to driveTuple's: same recovery, same billing, same epilogue.
//
// With a fault injector armed the engine runs in lockstep mode —
// capacity 1 — which reproduces the tuple engine's charge / fault-check
// / emit interleaving exactly, so per-site fault sequence numbers, kill
// points, and retry schedules replay bit for bit. Unarmed runs use the
// configured batch size; every completed-run observable is still
// bit-identical to tuple execution (cost metering is a pure function of
// per-class tuple counts — see Meter), and a budget-killed run differs
// only in Result.Rows, which no discovery consumer reads.
func (e *Executor) driveVec(ctx context.Context, root *plan.Node, budget float64, spill bool) (res *Result, err error) {
	meter := &Meter{Budget: budget}
	res = &Result{JoinSel: make(map[int]float64)}
	defer func() {
		if r := recover(); r != nil {
			res.Cost = meter.Used + meter.Drifted
			res.Drift = meter.Drifted
			res.Completed = false
			err = recoveredError(root.Signature(), r)
		}
	}()
	capacity := e.batchSize
	if e.faults != nil {
		capacity = 1 // lockstep: replay tuple-exact fault sequences
	}
	op, err := e.buildVec(root, meter, res, capacity)
	if err != nil {
		res.Cost = meter.Used + meter.Drifted
		res.Drift = meter.Drifted
		return res, opError("build", err)
	}
	if e.faults == nil {
		markDiscardRoot(op)
		// Morsel-driven parallel path: multiple workers share one budget
		// and one result, splitting the driving scan into fixed windows.
		// Armed faults force the sequential lockstep path above (capacity
		// 1), so chaos replay stays bit-for-bit regardless of workers.
		if e.workers > 1 {
			if scan := morselScanOf(op); scan != nil {
				return e.driveMorsels(ctx, op, scan, meter, res, spill)
			}
		}
	}
	steps := 0
	err = func() error {
		if err := op.Open(); err != nil {
			return err
		}
		for {
			if steps&cancelCheckMask == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return opError("cancel", cerr)
				}
				if ferr := e.faults.Check(faultinject.SiteOperatorPanic); ferr != nil {
					panic(ferr)
				}
				if d := e.faults.Drift(faultinject.SiteLatency); d > 0 {
					meter.AddDrift(d * e.params.Tuple)
				}
			} else if capacity > 1 {
				// Off-gate batches are whole windows of rows; keep
				// cancellation latency comparable to the tuple engine's
				// every-64-rows check.
				if cerr := ctx.Err(); cerr != nil {
					return opError("cancel", cerr)
				}
			}
			steps++
			b, err := op.NextBatch()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			res.Rows += int64(b.n)
		}
	}()
	return e.epilogue(res, meter, op, err, op.Close(), spill)
}

// buildVec compiles a plan node into a batch operator tree. It must
// mirror build exactly: same fault-check sites, same degradation notes,
// and — critically — the same meter class registration order, so the
// metered total is the same function of tuple counts in both engines.
func (e *Executor) buildVec(n *plan.Node, meter *Meter, res *Result, capacity int) (batchOperator, error) {
	if n.IsScan() {
		return e.buildScanVec(n, meter, res, capacity)
	}
	return e.buildJoinVec(n, meter, res, capacity)
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

// joinRefs is a vectorized join's predicates resolved to column
// references into its children's tuples: l into the left child's, r
// into the right's. As in joinCols, the first predicate is the physical
// key and the rest are residuals.
type joinRefs struct {
	ids  []int
	l, r []colRef
	// rowKey marks a physical key read from rows on either side: its
	// hash or index candidates share a joinKey, not necessarily a value,
	// and candidateMatch rechecks them.
	rowKey bool
}

// resolveJoinRefs resolves the join predicates of node n. It fails, as
// resolveJoinCols does, when a predicate's columns are not below the
// children in either orientation.
func (e *Executor) resolveJoinRefs(n *plan.Node) (*joinRefs, error) {
	e.namesOnce.Do(e.resolveNames)
	jr := &joinRefs{}
	for _, id := range n.Join.JoinIDs {
		j, cols := e.q.Joins[id], e.joinOrds[id]
		lrel, rrel, lcol, rcol := j.LeftRel, j.RightRel, cols[0], cols[1]
		ls, rs := slotOf(n.Left, lrel), slotOf(n.Right, rrel)
		if ls < 0 || rs < 0 {
			// The predicate may be oriented the other way round.
			lrel, rrel, lcol, rcol = rrel, lrel, rcol, lcol
			ls, rs = slotOf(n.Left, lrel), slotOf(n.Right, rrel)
		}
		if ls < 0 || rs < 0 || lcol < 0 || rcol < 0 {
			return nil, fmt.Errorf("exec: join %d columns not found in children", id)
		}
		l, err := e.newColRef(lrel, ls, lcol)
		if err != nil {
			return nil, err
		}
		r, err := e.newColRef(rrel, rs, rcol)
		if err != nil {
			return nil, err
		}
		jr.ids = append(jr.ids, id)
		jr.l = append(jr.l, l)
		jr.r = append(jr.r, r)
	}
	jr.rowKey = jr.l[0].ints == nil || jr.r[0].ints == nil
	return jr, nil
}

// residualsMatch checks the predicates beyond the physical key on a
// left and a right tuple.
func (jr *joinRefs) residualsMatch(l, r []int32) bool {
	for k := 1; k < len(jr.ids); k++ {
		a, b := &jr.l[k], &jr.r[k]
		if !equalAt(a, l[a.slot], b, r[b.slot]) {
			return false
		}
	}
	return true
}

// candidateMatch checks a hash or index candidate pair: the physical
// key again when it was read from rows, then the residuals.
func (jr *joinRefs) candidateMatch(l, r []int32) bool {
	a, b := &jr.l[0], &jr.r[0]
	return (!jr.rowKey || equalAt(a, l[a.slot], b, r[b.slot])) && jr.residualsMatch(l, r)
}

func (e *Executor) buildScanVec(n *plan.Node, meter *Meter, res *Result, capacity int) (batchOperator, error) {
	rel := n.Scan.Rel
	r := &e.q.Relations[rel]
	relation := e.store.Relation(r.Table)
	if relation == nil {
		return nil, fmt.Errorf("exec: store missing relation %s", r.Table)
	}
	seq := func() (batchOperator, error) {
		filters := e.compileFilters(rel)
		return &vecSeqScan{
			rel:     relation,
			filters: filters,
			kernels: compileKernels(relation, filters),
			meter:   meter,
			ex:      e,
			cls:     meter.Class(e.params.SeqTuple),
			cap:     capacity,
		}, nil
	}
	switch n.Scan.Method {
	case plan.SeqScan:
		return seq()
	case plan.IndexScan:
		// Degradation ladder rung 1, identical to the tuple builder: a
		// persistent index-probe fault downgrades to a sequential scan.
		if ferr := e.faults.Check(faultinject.SiteIndexProbe); ferr != nil {
			if faultinject.IsTransient(ferr) {
				return nil, opError("indexscan", ferr)
			}
			res.Degraded = append(res.Degraded,
				fmt.Sprintf("indexscan→seqscan rel=%s (%v)", r.Alias, ferr))
			return seq()
		}
		rows, filters, err := e.planIndexScan(rel, relation)
		if err != nil {
			return nil, err
		}
		return &vecIndexScan{
			rel:     relation,
			rows:    rows,
			filters: filters,
			meter:   meter,
			ex:      e,
			cls:     meter.Class(e.params.IdxTuple),
			cap:     capacity,
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown scan method")
	}
}

func (e *Executor) buildJoinVec(n *plan.Node, meter *Meter, res *Result, capacity int) (batchOperator, error) {
	lop, err := e.buildVec(n.Left, meter, res, capacity)
	if err != nil {
		return nil, err
	}
	lw, rw := n.Left.NumRels(), n.Right.NumRels()
	switch n.Join.Method {
	case plan.HashJoin, plan.MergeJoin, plan.NLJoin:
		rop, err := e.buildVec(n.Right, meter, res, capacity)
		if err != nil {
			return nil, err
		}
		refs, err := e.resolveJoinRefs(n)
		if err != nil {
			return nil, err
		}
		base := vecJoinBase{e: e, meter: meter, refs: refs, left: lop, right: rop, rw: rw}
		out := e.pool.getOut(lw, rw, capacity)
		switch n.Join.Method {
		case plan.HashJoin:
			return &vecHashJoin{
				vecJoinBase: base,
				clsBuild:    meter.Class(e.params.HashBuild),
				clsProbe:    meter.Class(e.params.HashProbe),
				clsOut:      meter.Class(e.params.Tuple),
				out:         out,
			}, nil
		case plan.MergeJoin:
			return &vecMergeJoin{
				vecJoinBase: base,
				clsMerge:    meter.Class(e.params.Merge),
				clsOut:      meter.Class(e.params.Tuple),
				out:         out,
			}, nil
		default:
			return &vecNLJoin{
				vecJoinBase: base,
				clsMat:      meter.Class(e.params.Mat),
				clsPair:     meter.Class(e.params.NLPair),
				clsOut:      meter.Class(e.params.Tuple),
				out:         out,
			}, nil
		}
	case plan.IndexNLJoin:
		rel := n.Right.Scan.Rel
		refs, err := e.resolveJoinRefs(n)
		if err != nil {
			return nil, err
		}
		relation := refs.r[0].rel
		innerCol := refs.r[0].col
		if !relation.HasIndex(innerCol) {
			return nil, fmt.Errorf("exec: no index on %s column %d for INL join",
				relation.Name, innerCol)
		}
		filters := e.compileFilters(rel)
		return &vecIndexNLJoin{
			vecJoinBase: vecJoinBase{e: e, meter: meter, refs: refs, left: lop, rw: 1},
			relIdx:      rel,
			rel:         relation,
			filters:     filters,
			kernels:     compileKernels(relation, filters),
			clsDescend:  meter.Class(e.params.IdxDescend * log2g(float64(relation.NumRows()))),
			clsFetch:    meter.Class(e.params.IdxTuple),
			clsOut:      meter.Class(e.params.Tuple),
			out:         e.pool.getOut(lw, 1, capacity),
			ls:          e.faults != nil,
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown join method")
	}
}

// vecJoinBase is the batch engine's counterpart of joinBase: shared
// join state plus the run-time selectivity monitor.
type vecJoinBase struct {
	e           *Executor
	meter       *Meter
	refs        *joinRefs
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
		for _, id := range b.refs.ids {
			into[id] = b.obs.Sel()
		}
	}
	collectObservations(b.left, into)
	if b.right != nil {
		collectObservations(b.right, into)
	}
}
