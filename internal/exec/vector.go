package exec

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
)

// DefaultBatchSize is the row capacity operators exchange per NextBatch
// call in the vectorized engine.
const DefaultBatchSize = 1024

// rowBatch is a batch of row references with an optional selection
// vector: sel == nil means every row of base is selected, otherwise sel
// lists the selected ordinals into base. Filters narrow batches by
// writing selection vectors — rows are never copied.
//
// stable marks that the referenced rows stay valid after further
// NextBatch calls on the producer (true for scans, whose rows alias the
// immutable storage arrays; false for join outputs, which live in a
// reused arena). Consumers that retain rows across batches (hash build,
// sort, NL materialization) must copy unstable rows into a valSlab.
type rowBatch struct {
	base   []expr.Row
	sel    []int32
	stable bool

	// rel/off identify columnar scan batches: base aliases
	// rel.Rows[off : off+len(base)], so consumers that only need one
	// column (hash-join key fetch) can read rel's typed vectors at
	// absolute ordinal off+i instead of chasing row pointers.
	rel *storage.Relation
	off int

	// count carries the row count of value-free batches (base == nil),
	// produced by a discarding root arena — the drive loop only counts
	// root output, so the root join never materializes joined rows.
	count int
}

// n returns the number of selected rows.
func (b *rowBatch) n() int {
	if b.sel != nil {
		return len(b.sel)
	}
	if b.base != nil {
		return len(b.base)
	}
	return b.count
}

// row returns the i-th selected row.
func (b *rowBatch) row(i int) expr.Row {
	if b.sel != nil {
		return b.base[b.sel[i]]
	}
	return b.base[i]
}

// slabChunk is the value capacity of one valSlab chunk.
const slabChunk = 4096

// valSlab is an append-only arena for the rows an operator retains from
// unstable batches (hash build, sort input, NL inner): each copy lands
// in the current fixed-size chunk instead of its own allocation. Rows
// never span chunks and chunks never move, so a copied row stays valid
// until the slab is reset; pooled slabs keep their chunks across runs.
type valSlab struct {
	chunks [][]expr.Value
	cur    int
}

// copyRow copies r into the slab and returns the copy.
func (s *valSlab) copyRow(r expr.Row) expr.Row {
	for {
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, make([]expr.Value, 0, max(slabChunk, len(r))))
		}
		c := s.chunks[s.cur]
		if at := len(c); at+len(r) <= cap(c) {
			c = append(c, r...)
			s.chunks[s.cur] = c
			return c[at:len(c):len(c)]
		}
		s.cur++
	}
}

// reset empties every chunk and rewinds to the first.
func (s *valSlab) reset() {
	for i := range s.chunks {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.cur = 0
}

// proj is a join output's projection: the positions of the left (probe,
// outer) row's columns it keeps, then the right (build, inner) row's.
// A join emits only the columns some ancestor reads (see buildVec), so
// an output row is len(l)+len(r) values wide, not the children's
// concatenated width.
type proj struct{ l, r []int }

func (p proj) width() int { return len(p.l) + len(p.r) }

// outBuf is a join operator's reusable output arena: projected output
// rows are appended into one flat value slab, so a batch of joined rows
// costs a few value copies per row instead of one allocation each. The
// arena is recycled on every NextBatch call, which is why batches built
// from it are unstable.
type outBuf struct {
	proj proj
	cap  int
	vals []expr.Value
	rows []expr.Row
	b    rowBatch

	// discard turns the arena into a pure counter: the plan root's rows
	// are never read (the drive loop only counts them — §3.1 discards
	// Result rows), so the root join skips materializing joined values
	// entirely and emits count-only batches.
	discard bool
	count   int
}

func (o *outBuf) reset() {
	o.vals = o.vals[:0]
	o.rows = o.rows[:0]
	o.count = 0
}

// emit appends the projection of l and r as one output row.
func (o *outBuf) emit(l, r expr.Row) {
	if o.discard {
		o.count++
		return
	}
	s := len(o.vals)
	for _, c := range o.proj.l {
		o.vals = append(o.vals, l[c])
	}
	for _, c := range o.proj.r {
		o.vals = append(o.vals, r[c])
	}
	o.rows = append(o.rows, o.vals[s:len(o.vals):len(o.vals)])
}

func (o *outBuf) full() bool { return o.len() >= o.cap }

func (o *outBuf) len() int {
	if o.discard {
		return o.count
	}
	return len(o.rows)
}

// take returns the buffered rows as an (unstable) batch.
func (o *outBuf) take() *rowBatch {
	if o.discard {
		o.b = rowBatch{count: o.count}
	} else {
		o.b = rowBatch{base: o.rows}
	}
	return &o.b
}

// bufPool recycles the vectorized engine's per-run scratch buffers
// across driveVec attempts: selection vectors, join output arenas,
// index-scan fetch slabs, hash-build tables, and the value slabs that
// hold retained copies of unstable rows. A plain mutex-guarded freelist
// beats sync.Pool here — buffers are checked out a handful of times per
// query, never concurrently contended on the sequential path, and the
// typed slices avoid interface boxing on every get/put.
type bufPool struct {
	mu     sync.Mutex
	sels   [][]int32
	outs   []*outBuf
	rows   [][]expr.Row
	tables []*graceTable
	slabs  []*valSlab
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

func (p *bufPool) getSel(capacity int) []int32 {
	if s, ok := take(p, &p.sels, func(s []int32) bool { return cap(s) >= capacity }); ok {
		return s[:0]
	}
	return make([]int32, 0, capacity)
}

func (p *bufPool) putSel(s []int32) {
	if s != nil {
		give(p, &p.sels, s[:0])
	}
}

// getOut returns an output arena for capacity rows of the projection.
func (p *bufPool) getOut(pj proj, capacity int) *outBuf {
	w := pj.width()
	o, ok := take(p, &p.outs, func(o *outBuf) bool {
		return cap(o.vals) >= w*capacity && cap(o.rows) >= capacity
	})
	if !ok {
		o = &outBuf{vals: make([]expr.Value, 0, w*capacity), rows: make([]expr.Row, 0, capacity)}
	}
	o.reset()
	o.proj, o.cap, o.discard = pj, capacity, false
	return o
}

func (p *bufPool) putOut(o *outBuf) {
	if o != nil {
		give(p, &p.outs, o)
	}
}

func (p *bufPool) getRows(capacity int) []expr.Row {
	if r, ok := take(p, &p.rows, func(r []expr.Row) bool { return cap(r) >= capacity }); ok {
		return r[:0]
	}
	return make([]expr.Row, 0, capacity)
}

func (p *bufPool) putRows(r []expr.Row) {
	if r != nil {
		clear(r)
		give(p, &p.rows, r[:0])
	}
}

// getTable returns an empty hash-build table.
func (p *bufPool) getTable() *graceTable {
	if t, ok := take(p, &p.tables, func(*graceTable) bool { return true }); ok {
		return t
	}
	return newGraceTable()
}

// putTable empties t and recycles it. Only the table's owner returns
// it: morsel clones share it read-only.
func (p *bufPool) putTable(t *graceTable) {
	if t != nil {
		t.reset()
		give(p, &p.tables, t)
	}
}

func (p *bufPool) getSlab() *valSlab {
	if s, ok := take(p, &p.slabs, func(*valSlab) bool { return true }); ok {
		return s
	}
	return &valSlab{}
}

func (p *bufPool) putSlab(s *valSlab) {
	if s != nil {
		s.reset()
		give(p, &p.slabs, s)
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
// drive loop just counts them), so materializing the joined values is
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
		if !o.ls {
			o.out.discard = true
		}
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
	op, _, err := e.buildVec(root, meter, res, capacity, nil)
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
			res.Rows += int64(b.n())
		}
	}()
	return e.epilogue(res, meter, op, err, op.Close(), spill)
}

// buildVec compiles a plan node into a batch operator tree. It must
// mirror build exactly: same fault-check sites, same degradation notes,
// and — critically — the same meter class registration order, so the
// metered total is the same function of tuple counts in both engines.
//
// need names the qualified columns ("alias.column") that the node's
// ancestors read: their join keys and residual predicates. A join's
// output carries exactly the columns of need it can supply, so the plan
// root (need empty) is count-only and no arena copies a column nobody
// reads. Scans ignore need: their batches alias storage rows, zero-copy.
func (e *Executor) buildVec(n *plan.Node, meter *Meter, res *Result, capacity int, need []string) (batchOperator, *schema, error) {
	if n.IsScan() {
		return e.buildScanVec(n, meter, res, capacity)
	}
	return e.buildJoinVec(n, meter, res, capacity, need)
}

// project returns the output schema and projection of a join whose
// children have schemas ls and rs: the columns in need, in
// concatenation order.
func project(ls, rs *schema, need []string) (*schema, proj) {
	var pj proj
	sch := &schema{}
	for i, c := range ls.cols {
		if slices.Contains(need, c) {
			pj.l = append(pj.l, i)
			sch.cols = append(sch.cols, c)
		}
	}
	for i, c := range rs.cols {
		if slices.Contains(need, c) {
			pj.r = append(pj.r, i)
			sch.cols = append(sch.cols, c)
		}
	}
	return sch, pj
}

func (e *Executor) buildScanVec(n *plan.Node, meter *Meter, res *Result, capacity int) (batchOperator, *schema, error) {
	rel := n.Scan.Rel
	r := &e.q.Relations[rel]
	relation := e.store.Relation(r.Table)
	if relation == nil {
		return nil, nil, fmt.Errorf("exec: store missing relation %s", r.Table)
	}
	sch := e.relSchema(rel)
	seq := func() (batchOperator, *schema, error) {
		filters := e.compileFilters(rel, -1)
		return &vecSeqScan{
			rel:     relation,
			filters: filters,
			kernels: compileKernels(relation, filters),
			meter:   meter,
			ex:      e,
			cls:     meter.Class(e.params.SeqTuple),
			cap:     capacity,
		}, sch, nil
	}
	switch n.Scan.Method {
	case plan.SeqScan:
		return seq()
	case plan.IndexScan:
		// Degradation ladder rung 1, identical to the tuple builder: a
		// persistent index-probe fault downgrades to a sequential scan.
		if ferr := e.faults.Check(faultinject.SiteIndexProbe); ferr != nil {
			if faultinject.IsTransient(ferr) {
				return nil, nil, opError("indexscan", ferr)
			}
			res.Degraded = append(res.Degraded,
				fmt.Sprintf("indexscan→seqscan rel=%s (%v)", r.Alias, ferr))
			return seq()
		}
		rows, bestIdx, err := e.planIndexScan(rel, relation)
		if err != nil {
			return nil, nil, err
		}
		return &vecIndexScan{
			rel:     relation,
			rows:    rows,
			filters: e.compileFilters(rel, bestIdx),
			meter:   meter,
			ex:      e,
			cls:     meter.Class(e.params.IdxTuple),
			cap:     capacity,
		}, sch, nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown scan method")
	}
}

func (e *Executor) buildJoinVec(n *plan.Node, meter *Meter, res *Result, capacity int, need []string) (batchOperator, *schema, error) {
	// The children's outputs are read by this join's predicates and by
	// whatever reads this join's output.
	below := slices.Clip(need)
	for _, id := range n.Join.JoinIDs {
		names := e.keyNames(id)
		below = append(below, names[:]...)
	}
	lop, ls, err := e.buildVec(n.Left, meter, res, capacity, below)
	if err != nil {
		return nil, nil, err
	}
	switch n.Join.Method {
	case plan.HashJoin, plan.MergeJoin, plan.NLJoin:
		rop, rs, err := e.buildVec(n.Right, meter, res, capacity, below)
		if err != nil {
			return nil, nil, err
		}
		jc, err := e.resolveJoinCols(n, ls, rs)
		if err != nil {
			return nil, nil, err
		}
		sch, pj := project(ls, rs, need)
		base := vecJoinBase{e: e, meter: meter, jc: jc, left: lop, right: rop}
		out := e.pool.getOut(pj, capacity)
		switch n.Join.Method {
		case plan.HashJoin:
			return &vecHashJoin{
				vecJoinBase: base,
				clsBuild:    meter.Class(e.params.HashBuild),
				clsProbe:    meter.Class(e.params.HashProbe),
				clsOut:      meter.Class(e.params.Tuple),
				out:         out,
			}, sch, nil
		case plan.MergeJoin:
			return &vecMergeJoin{
				vecJoinBase: base,
				clsMerge:    meter.Class(e.params.Merge),
				clsOut:      meter.Class(e.params.Tuple),
				out:         out,
			}, sch, nil
		default:
			return &vecNLJoin{
				vecJoinBase: base,
				clsMat:      meter.Class(e.params.Mat),
				clsPair:     meter.Class(e.params.NLPair),
				clsOut:      meter.Class(e.params.Tuple),
				out:         out,
			}, sch, nil
		}
	case plan.IndexNLJoin:
		rel := n.Right.Scan.Rel
		rs := e.relSchema(rel)
		jc, err := e.resolveJoinCols(n, ls, rs)
		if err != nil {
			return nil, nil, err
		}
		relation := e.store.Relation(e.q.Relations[rel].Table)
		if relation == nil {
			return nil, nil, fmt.Errorf("exec: store missing relation %s", e.q.Relations[rel].Table)
		}
		innerCol := jc.rightPos[0]
		if !relation.HasHashIndex(innerCol) {
			return nil, nil, fmt.Errorf("exec: no hash index on %s column %d for INL join",
				relation.Name, innerCol)
		}
		sch, pj := project(ls, rs, need)
		return &vecIndexNLJoin{
			vecJoinBase: vecJoinBase{e: e, meter: meter, jc: jc, left: lop},
			relIdx:      rel,
			rel:         relation,
			filters:     e.compileFilters(rel, -1),
			clsDescend:  meter.Class(e.params.IdxDescend * log2g(float64(relation.NumRows()))),
			clsFetch:    meter.Class(e.params.IdxTuple),
			clsOut:      meter.Class(e.params.Tuple),
			out:         e.pool.getOut(pj, capacity),
			ls:          e.faults != nil,
		}, sch, nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown join method")
	}
}

// vecJoinBase is the batch engine's counterpart of joinBase: shared
// join state plus the run-time selectivity monitor.
type vecJoinBase struct {
	e           *Executor
	meter       *Meter
	jc          *joinCols
	left, right batchOperator
	obs         JoinObs
	// exact marks that both inputs were fully consumed, making the
	// observed selectivity exact.
	exact bool
}

// observations implements joinObserver, recursing into children.
func (b *vecJoinBase) observations(into map[int]float64) {
	if b.exact {
		for _, id := range b.jc.ids {
			into[id] = b.obs.Sel()
		}
	}
	collectObservations(b.left, into)
	if b.right != nil {
		collectObservations(b.right, into)
	}
}
