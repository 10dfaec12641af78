// Morsel-driven intra-query parallelism for the vectorized engine.
//
// A parallel run splits one budgeted execution across a bounded worker
// pool inside a single driveVec call. The plan's blocking work (hash
// builds, inner materializations, index descents at Open) runs first,
// sequentially, on the main meter — exactly as a sequential run would.
// Then the root pipeline — the chain of joins descending left inputs to
// one sequential scan — is cloned per worker: clones share the built
// hash tables and materialized inners (read-only after Open) but own
// their probe state, output arena, and meter. Workers claim fixed-size
// scan windows ("morsels") from a shared atomic cursor until the scan
// is exhausted.
//
// Metering stays exact because the Meter's total is a pure function of
// per-class tuple counts (see Meter): integer counts merge
// associatively across workers, so the folded total of a completed
// parallel run is bit-identical to the sequential run at any worker
// count, and a budget kill bills exactly the budget (the sequential
// clamp) no matter how the crossing interleaved.
//
// Armed fault injectors never reach this path: driveVec forces
// sequential lockstep (capacity 1) so chaos schedules replay bit for
// bit.
package exec

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// meterShared coordinates one budget across per-worker meters. Workers
// publish class counts into per-worker atomic lanes; the budget check
// recomputes the merged total (sequential-phase counts + all lanes) in
// class-registration order, so the decision is over exactly the number
// sequential execution would have.
//
// Kill protocol: the first charge that observes the merged total past
// the budget serializes on mu and binary-searches its own batch down to
// the smallest count still past the budget (lo = 1 — the killing tuple
// itself stays billed). Racing losers keep their full batch billed and
// never roll back, preserving the invariant that a set killed flag
// implies the folded total exceeds the budget. The authoritative
// decision is re-taken at fold via settle(), which clamps a killed
// run's Used to exactly Budget.
type meterShared struct {
	root   *Meter
	budget float64
	lanes  [][]atomic.Int64 // [worker][class]
	mu     sync.Mutex
	killed atomic.Bool
}

// fork freezes the meter's sequential-phase state and creates the
// shared ledger for n workers. The root meter must not be charged again
// until fold.
func (m *Meter) fork(n int) *meterShared {
	s := &meterShared{root: m, budget: m.Budget, lanes: make([][]atomic.Int64, n)}
	for w := range s.lanes {
		s.lanes[w] = make([]atomic.Int64, len(m.classes))
	}
	return s
}

// worker returns the per-worker meter for lane w. All its ChargeN calls
// route through meterShared.charge; one-shot Charge panics (blocking
// work belongs to the sequential phase).
func (s *meterShared) worker(w int) *Meter {
	return &Meter{Budget: s.budget, shared: s, wid: w}
}

// mergedSum recomputes the merged metered total in class-registration
// order: frozen sequential counts plus every worker lane. Lanes only
// grow, so any observed total is a lower bound on the folded total.
func (s *meterShared) mergedSum() float64 {
	u := s.root.oneShot
	for h := range s.root.classes {
		cl := &s.root.classes[h]
		n := cl.n
		for w := range s.lanes {
			n += s.lanes[w][h].Load()
		}
		u += cl.c * float64(n)
	}
	return u
}

// charge is the worker-side ChargeN: publish the batch, check the
// merged budget, and on the crossing run the kill protocol.
func (s *meterShared) charge(m *Meter, h int, n int64) (int64, error) {
	if s.killed.Load() {
		return 0, ErrBudgetExceeded
	}
	lane := &s.lanes[m.wid][h]
	lane.Add(n)
	if s.budget <= 0 || s.mergedSum() <= s.budget {
		return n, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed.Load() {
		// Lost the kill race: keep the whole batch billed. Rolling back
		// against the winner's already-searched total could drop the
		// merged sum back under the budget, un-justifying the kill.
		return n, ErrBudgetExceeded
	}
	// Winner: narrow this batch to its exact crossing count. Concurrent
	// lanes can still grow during the search, which only tightens the
	// bound — the invariant "total at base+hi exceeds budget" survives
	// because other lanes are monotone.
	base := lane.Load() - n
	lo, hi := int64(1), n
	for lo < hi {
		mid := lo + (hi-lo)/2
		lane.Store(base + mid)
		if s.mergedSum() > s.budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	lane.Store(base + lo)
	s.killed.Store(true)
	return lo, ErrBudgetExceeded
}

// fold merges every worker lane into the root meter and settles it.
// After fold the root meter's Used is authoritative: bit-identical to
// sequential for completed runs, clamped to exactly Budget for kills.
func (s *meterShared) fold() error {
	m := s.root
	for h := range m.classes {
		var n int64
		for w := range s.lanes {
			n += s.lanes[w][h].Load()
		}
		m.classes[h].n += n
	}
	err := m.settle()
	if err == nil && s.killed.Load() {
		// Defensive: a worker observed a crossing that the folded total
		// no longer shows. The protocol forbids this (losers never roll
		// back); never report completion once a kill was decided.
		m.Used = m.Budget
		err = ErrBudgetExceeded
	}
	return err
}

// morselScanOf walks the root pipeline — join left inputs — down to its
// driving operator and returns it when the plan is parallel-eligible:
// the driver must be a sequential scan (the morsel source) and every
// operator on the chain must charge batching-independent per-row
// counts. Merge join disqualifies the chain (its right-cursor skip
// charges depend on the left-row arrival order, which partitioning
// changes); an index-scan driver is not morselized (its ordinal list is
// not a contiguous window source).
func morselScanOf(op batchOperator) *vecSeqScan {
	for {
		switch o := op.(type) {
		case *vecSeqScan:
			return o
		case *vecHashJoin:
			op = o.left
		case *vecNLJoin:
			op = o.left
		case *vecIndexNLJoin:
			op = o.left
		default:
			return nil
		}
	}
}

// cloneChain clones the root pipeline for one worker: probe state and
// output arenas (of the original's widths) are fresh, the blocking
// structures built at Open (hash tables, materialized inner arenas) and
// all read-only compilation products (column references, filters,
// kernels) are shared, and every meter reference points at the worker's
// lane. A clone's right child is nil — Close knows not to double-close
// or recycle shared state.
func cloneChain(op batchOperator, wm *Meter) batchOperator {
	switch o := op.(type) {
	case *vecSeqScan:
		c := *o
		c.meter = wm
		c.pos = 0
		c.out = rowBatch{}
		c.sel = o.ex.pool.getInts(o.cap)
		return &c
	case *vecHashJoin:
		return &vecHashJoin{
			vecJoinBase: o.cloneBase(wm),
			clsBuild:    o.clsBuild,
			clsProbe:    o.clsProbe,
			clsOut:      o.clsOut,
			out:         o.e.pool.cloneOut(o.out),
			table:       o.table,
			pkeys:       o.pkeys,
			me:          -1,
		}
	case *vecNLJoin:
		return &vecNLJoin{
			vecJoinBase: o.cloneBase(wm),
			clsMat:      o.clsMat,
			clsPair:     o.clsPair,
			clsOut:      o.clsOut,
			out:         o.e.pool.cloneOut(o.out),
			inner:       o.inner,
		}
	case *vecIndexNLJoin:
		return &vecIndexNLJoin{
			vecJoinBase: o.cloneBase(wm),
			relIdx:      o.relIdx,
			rel:         o.rel,
			filters:     o.filters,
			kernels:     o.kernels,
			clsDescend:  o.clsDescend,
			clsFetch:    o.clsFetch,
			clsOut:      o.clsOut,
			out:         o.e.pool.cloneOut(o.out),
		}
	default:
		panic("exec: cloneChain on non-pipeline operator")
	}
}

// cloneBase returns a worker clone's join base: the shared column
// references, the cloned left pipeline, no right child.
func (b *vecJoinBase) cloneBase(wm *Meter) vecJoinBase {
	return vecJoinBase{e: b.e, meter: wm, refs: b.refs, left: cloneChain(b.left, wm), rw: b.rw}
}

// cloneOut returns a fresh arena of o's shape.
func (p *bufPool) cloneOut(o *outBuf) *outBuf {
	c := p.getOut(len(o.cur), len(o.ords)-len(o.cur), o.cap)
	c.discard = o.discard
	return c
}

// chainBase returns the pipeline-chain join base of an operator, or nil
// for the driving scan.
func chainBase(op batchOperator) *vecJoinBase {
	switch o := op.(type) {
	case *vecHashJoin:
		return &o.vecJoinBase
	case *vecNLJoin:
		return &o.vecJoinBase
	case *vecIndexNLJoin:
		return &o.vecJoinBase
	default:
		return nil
	}
}

// mergeWorkerObs folds a worker clone's probe-side observations into
// the original chain. RightRows stays on the original: observed once
// during the sequential build phase, or (index-NL) counted when the
// observation is collected.
func mergeWorkerObs(orig, clone batchOperator) {
	for {
		ob, cb := chainBase(orig), chainBase(clone)
		if ob == nil || cb == nil {
			return
		}
		ob.obs.LeftRows += cb.obs.LeftRows
		ob.obs.OutRows += cb.obs.OutRows
		orig, clone = ob.left, cb.left
	}
}

// markExactChain marks every chain join's selectivity observation exact
// after a completed parallel run: the morsel cursor ran the scan dry,
// so every chain join fully consumed both inputs — the same condition
// the sequential engine detects via left EOF.
func markExactChain(op batchOperator) {
	for b := chainBase(op); b != nil; b = chainBase(op) {
		b.exact = true
		op = b.left
	}
}

// driveMorsels runs one parallel execution attempt: sequential Open
// (blocking phase) on the main meter, then the morsel loop, then the
// shared epilogue — the exact frame driveVec's sequential path uses.
func (e *Executor) driveMorsels(ctx context.Context, op batchOperator, scan *vecSeqScan, meter *Meter, res *Result, spill bool) (*Result, error) {
	err := op.Open()
	if err == nil {
		err = e.runMorsels(ctx, op, scan, meter, res)
	}
	return e.epilogue(res, meter, op, err, op.Close(), spill)
}

// runMorsels executes the opened plan across the worker pool and folds
// workers' meters, observations, and row counts back into the main run
// state.
func (e *Executor) runMorsels(ctx context.Context, op batchOperator, scan *vecSeqScan, meter *Meter, res *Result) error {
	nw := e.workers
	if morsels := (scan.rel.NumRows() + e.batchSize - 1) / e.batchSize; nw > morsels {
		nw = morsels // never spin up workers with nothing to claim
	}
	if nw < 1 {
		nw = 1
	}
	shared := meter.fork(nw)
	scan.cursor = &atomic.Int64{}
	defer func() { scan.cursor = nil }()

	clones := make([]batchOperator, nw)
	errs := make([]error, nw)
	panics := make([]any, nw)
	var rows atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		clones[w] = cloneChain(op, shared.worker(w))
		wg.Add(1)
		go func(w int, root batchOperator) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			defer root.Close() // recycle the clone's pooled buffers
			steps := 0
			for {
				if steps&cancelCheckMask == 0 {
					if cerr := ctx.Err(); cerr != nil {
						errs[w] = opError("cancel", cerr)
						return
					}
				}
				steps++
				b, err := root.NextBatch()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[w] = err
					return
				}
				rows.Add(int64(b.n))
			}
		}(w, clones[w])
	}
	wg.Wait()
	res.Rows += rows.Load()
	foldErr := shared.fold()
	for _, p := range panics {
		if p != nil {
			// Re-panic on the drive goroutine: driveVec's recover converts
			// it to a typed operator error, exactly like sequential panics.
			panic(p)
		}
	}
	for _, werr := range errs {
		if werr != nil && !errors.Is(werr, ErrBudgetExceeded) {
			return werr
		}
	}
	if foldErr != nil {
		return foldErr
	}
	for w := range clones {
		mergeWorkerObs(op, clones[w])
	}
	markExactChain(op)
	return nil
}
