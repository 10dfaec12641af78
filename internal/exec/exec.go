// Package exec implements the demand-driven iterator executor (§3.1.1)
// with the engine extensions the paper added to PostgreSQL: cost-limited
// execution with forced termination, spill-mode execution of a chosen
// subtree with output discarding, and run-time monitoring of operator
// selectivities.
//
// Operators charge the same per-tuple constants as the cost model, so a
// plan's metered execution cost equals its modeled cost whenever the
// model's cardinality inputs are exact — the paper's perfect-cost-model
// setting.
package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/storage"
)

// ErrBudgetExceeded aborts an execution whose metered cost passed its
// budget — the forced termination of §1.1.1.
var ErrBudgetExceeded = errors.New("exec: cost budget exceeded")

// Retry policy for faults classified transient (see the "Fault model &
// degradation ladder" section of DESIGN.md). An execution that fails
// with a transient fault is re-run up to MaxRetries times with capped
// exponential backoff and deterministic jitter; every cost unit the
// failed attempts consumed stays on the ledger (Result.WastedCost), so
// MSO accounting reflects the true price of robustness.
const (
	// MaxRetries bounds the number of re-executions after the first
	// attempt.
	MaxRetries = 3
	// BackoffBase is the first retry's backoff delay.
	BackoffBase = 500 * time.Microsecond
	// BackoffCap caps the exponential backoff delay.
	BackoffCap = 4 * time.Millisecond
)

// Meter tracks metered cost against an optional budget.
//
// Charge semantics under kills and retries (pinned by the regression
// test TestMeterClampAcrossKillRetryCycles):
//
//   - A killed execution costs exactly its budget: the Charge that
//     crosses Budget clamps Used to Budget and returns
//     ErrBudgetExceeded, and any further charges keep Used clamped, so
//     no over-run is ever billed for a single attempt.
//   - Retried work accumulates: every retry attempt runs on a fresh
//     Meter and the executor sums all attempts into Result.Cost, so a
//     budget-B execution that is killed once and retried twice bills up
//     to 3B — wasted work is charged, never forgiven.
//   - Induced latency drift accumulates separately in Drifted and never
//     triggers a budget kill: kills are decisions on modeled work,
//     drift is accounted (but unmodeled) slack.
//
// Per-tuple constants are billed through registered charge classes
// (Class/ChargeN) rather than repeated float additions: Used is always
// recomputed as oneShot + Σ countᵢ·cᵢ in class-registration order, so
// the metered total is a pure function of the per-class tuple counts.
// That makes it independent of how charges were grouped into batches:
// a run bills the same bits at every batch capacity and worker count,
// and the same as a row-at-a-time run (floating-point addition is not
// associative, so a running sum would diverge between groupings).
type Meter struct {
	// Used is the cost consumed so far.
	Used float64
	// Budget caps Used; 0 means unlimited.
	Budget float64
	// Drifted is the induced-latency cost accounted on top of Used; it
	// is billed to the caller but does not count toward the budget.
	Drifted float64

	// oneShot accumulates Charge units (descents, sorts) in arrival
	// order; operators issue these unbatched, in plan order.
	oneShot float64
	// classes holds the registered per-tuple charge classes, in plan
	// build order (see build).
	classes []meterClass

	// shared is non-nil on per-worker meters forked for morsel-parallel
	// execution (see Meter.fork in morsel.go): ChargeN then bills into
	// this worker's counter lane and checks the budget against the
	// merged counts of all workers, so a kill fires at the same billed
	// cost regardless of worker count.
	shared *meterShared
	wid    int
}

// meterClass is one per-tuple charge constant and its tuple count.
type meterClass struct {
	c float64
	n int64
}

// Class registers a per-tuple charge constant and returns its handle
// for ChargeN. Registration order is part of the metering contract: the
// recomputed total sums classes in this order.
func (m *Meter) Class(c float64) int {
	m.classes = append(m.classes, meterClass{c: c})
	return len(m.classes) - 1
}

// sum recomputes the metered total from the one-shot accumulator and
// the class counts, in registration order.
func (m *Meter) sum() float64 {
	u := m.oneShot
	for i := range m.classes {
		u += m.classes[i].c * float64(m.classes[i].n)
	}
	return u
}

// settle folds the recomputed total into Used, clamping at the budget.
func (m *Meter) settle() error {
	u := m.sum()
	if m.Budget > 0 && u > m.Budget {
		m.Used = m.Budget // a killed execution costs exactly its budget
		return ErrBudgetExceeded
	}
	m.Used = u
	return nil
}

// Charge adds units and fails with ErrBudgetExceeded past the budget.
func (m *Meter) Charge(units float64) error {
	if m.shared != nil {
		// One-shot charges (descents, sorts) belong to blocking work,
		// which runs in the sequential phase on the main meter; a worker
		// meter seeing one is a scheduler bug, not a billing case.
		panic("exec: one-shot Charge on a parallel worker meter")
	}
	m.oneShot += units
	return m.settle()
}

// ChargeN bills n tuples of class h. When the batch crosses the budget
// it is re-walked to the exact kill tuple: the count is rolled back to
// the smallest k ≤ n whose total exceeds the budget (the killing tuple
// itself stays billed, exactly as a per-tuple Charge sequence would
// leave it), Used clamps to Budget, and (k, ErrBudgetExceeded) is
// returned so monitors can account precisely the tuples processed
// before the kill. The search is sound because the total is monotone in
// the count even in floating point.
func (m *Meter) ChargeN(h int, n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	if m.shared != nil {
		return m.shared.charge(m, h, n)
	}
	cl := &m.classes[h]
	cl.n += n
	if err := m.settle(); err == nil {
		return n, nil
	}
	base := cl.n - n
	lo, hi := int64(1), n
	for lo < hi {
		mid := lo + (hi-lo)/2
		cl.n = base + mid
		if m.sum() > m.Budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cl.n = base + lo
	m.Used = m.Budget
	return lo, ErrBudgetExceeded
}

// AddDrift bills extra accounted cost without advancing the budget
// clock (induced latency / meter drift).
func (m *Meter) AddDrift(units float64) { m.Drifted += units }

// JoinObs is the run-time selectivity observation of one join operator.
type JoinObs struct {
	// LeftRows and RightRows are the input cardinalities consumed.
	LeftRows, RightRows int64
	// OutRows is the number of joined rows produced.
	OutRows int64
}

// Sel returns the observed join selectivity (fraction of the input cross
// product), or 0 when inputs were empty.
func (o JoinObs) Sel() float64 {
	if o.LeftRows == 0 || o.RightRows == 0 {
		return 0
	}
	return float64(o.OutRows) / (float64(o.LeftRows) * float64(o.RightRows))
}

// Result reports one (possibly budget-limited, possibly retried)
// execution.
type Result struct {
	// Rows is the number of rows the root produced before completion or
	// termination.
	Rows int64
	// Cost is the total accounted cost of the call: the final attempt's
	// metered cost plus every failed attempt's cost (WastedCost) plus
	// induced drift (Drift). This is the value the discovery ledger
	// charges.
	Cost float64
	// Completed reports whether the plan ran to completion.
	Completed bool
	// JoinSel maps join predicate IDs to their observed selectivities;
	// populated only for joins whose operators fully consumed their
	// inputs (exact observations).
	JoinSel map[int]float64
	// Retries is the number of re-executions after transient faults.
	Retries int
	// WastedCost is the cost consumed by attempts that failed and were
	// retried (included in Cost).
	WastedCost float64
	// Drift is the induced-latency cost accounted beyond the metered
	// work (included in Cost; never triggers a budget kill).
	Drift float64
	// Degraded lists the graceful fallbacks and retries taken during
	// the call, in order (e.g. "indexscan→seqscan rel=d").
	Degraded []string
}

// Executor runs physical plans over a store.
type Executor struct {
	q      *query.Query
	store  *storage.Store
	params cost.Params
	faults *faultinject.Injector

	// batchSize is the batch capacity. An armed fault injector forces
	// capacity 1 (lockstep mode) regardless, so fault sites fire at
	// per-row sequence numbers.
	batchSize int
	// workers is the intra-query parallelism degree: > 1 runs eligible
	// plans morsel-at-a-time across a bounded worker pool
	// (see morsel.go). An armed fault injector forces sequential
	// execution regardless, preserving bit-for-bit chaos replay.
	workers int

	// pool recycles selection and ordinal vectors, output arenas and
	// hash-build tables across batches and runs, so a warm executor
	// allocates near-zero per execution.
	pool bufPool

	// inner memoizes index-NL inner cardinalities (see innerCount).
	innerMu sync.Mutex
	inner   map[int]innerMemo
}

// innerMemo is one memoized filtered cardinality, valid only for the
// relation object and row count it was counted over.
type innerMemo struct {
	rel  *storage.Relation
	rows int
	n    int64
}

// innerCount returns how many rows of the query relation relIdx — stored
// as rel — pass filters: the inner cardinality of an index-NL join's
// selectivity observation. It is counted at most once per executor and
// relation. A Store.Add replacement (another *Relation) or an Append
// (another row count) misses the memo; the query fixes the filters.
func (e *Executor) innerCount(relIdx int, rel *storage.Relation, filters []boundFilter) int64 {
	e.innerMu.Lock()
	defer e.innerMu.Unlock()
	if m, ok := e.inner[relIdx]; ok && m.rel == rel && m.rows == rel.NumRows() {
		return m.n
	}
	n := countMatching(rel, filters)
	if e.inner == nil {
		e.inner = make(map[int]innerMemo)
	}
	e.inner[relIdx] = innerMemo{rel: rel, rows: rel.NumRows(), n: n}
	return n
}

// countMatching counts rel's rows passing every filter, through the
// relation's column kernels when every filter has one.
func countMatching(rel *storage.Relation, filters []boundFilter) int64 {
	if len(filters) == 0 {
		return int64(rel.NumRows())
	}
	var n int64
	if ks := compileKernels(rel, filters); ks != nil {
		sel := make([]int32, DefaultBatchSize)
		for pos := 0; pos < rel.NumRows(); pos += DefaultBatchSize {
			end := min(pos+DefaultBatchSize, rel.NumRows())
			s := ks[0].fill(pos, end, sel)
			for i := 1; i < len(ks) && len(s) > 0; i++ {
				s = ks[i].refine(s)
			}
			n += int64(len(s))
		}
		return n
	}
	for ord := range rel.NumRows() {
		if matchAll(filters, rel, ord) {
			n++
		}
	}
	return n
}

// MaxWorkers caps the intra-query parallelism degree.
const MaxWorkers = 64

// New creates an executor for the query over the store, at batch
// capacity DefaultBatchSize and one worker.
func New(q *query.Query, store *storage.Store, params cost.Params) *Executor {
	return &Executor{q: q, store: store, params: params, batchSize: DefaultBatchSize, workers: 1}
}

// WithFaults arms the executor with a fault injector (nil disarms) and
// returns the executor for chaining.
func (e *Executor) WithFaults(in *faultinject.Injector) *Executor {
	e.faults = in
	return e
}

// WithBatchSize overrides the batch capacity
// (values < 1 are clamped to 1) and returns the executor for chaining.
func (e *Executor) WithBatchSize(n int) *Executor {
	if n < 1 {
		n = 1
	}
	e.batchSize = n
	return e
}

// WithWorkers sets the intra-query parallelism degree (clamped to
// [1, MaxWorkers]) and returns the executor for chaining. At n > 1 the
// executor runs eligible plans morsel-at-a-time across n workers inside
// one budgeted execution; every completed-run observable
// (Cost, WastedCost, selectivities, degradations) is bit-identical to
// sequential execution, and a budget kill bills exactly the budget at
// any worker count. Armed faults force sequential lockstep regardless.
func (e *Executor) WithWorkers(n int) *Executor {
	if n < 1 {
		n = 1
	}
	if n > MaxWorkers {
		n = MaxWorkers
	}
	e.workers = n
	return e
}

// Workers reports the configured intra-query parallelism degree.
func (e *Executor) Workers() int { return e.workers }

// Run executes the plan with the budget (0 = unlimited), discarding
// output rows (the OLAP experiments measure work, not result delivery).
func (e *Executor) Run(root *plan.Node, budget float64) (*Result, error) {
	return e.RunCtx(context.Background(), root, budget)
}

// RunCtx is Run with cancellation: the context is checked between
// iterator steps, so a cancel or deadline tears the execution down
// mid-stream with a typed *OperatorError wrapping the context error.
func (e *Executor) RunCtx(ctx context.Context, root *plan.Node, budget float64) (*Result, error) {
	return e.retry(ctx, func() (*Result, error) { return e.driveOnce(ctx, root, budget, false) })
}

// RunSpill executes the plan in spill-mode on the given join predicate:
// only the subtree rooted at that join runs, and its output is
// discarded (§3.1.2). The observed selectivity of the spilled join is
// exact iff the subtree completed within budget.
func (e *Executor) RunSpill(root *plan.Node, joinID int, budget float64) (*Result, error) {
	return e.RunSpillCtx(context.Background(), root, joinID, budget)
}

// RunSpillCtx is RunSpill with cancellation (see RunCtx).
func (e *Executor) RunSpillCtx(ctx context.Context, root *plan.Node, joinID int, budget float64) (*Result, error) {
	sub := plan.SpillSubtree(root, joinID)
	if sub == nil {
		return nil, fmt.Errorf("exec: plan does not apply join %d", joinID)
	}
	return e.retry(ctx, func() (*Result, error) { return e.driveOnce(ctx, sub, budget, true) })
}

// retry drives attempts through the transient-fault retry policy:
// capped exponential backoff with deterministic jitter, every failed
// attempt's cost accumulated into the returned Result so the ledger
// pays for wasted work. Non-transient errors, exhausted retries, and
// cancellations surface immediately (with the cost consumed so far).
func (e *Executor) retry(ctx context.Context, attempt func() (*Result, error)) (*Result, error) {
	var wasted float64
	var degraded []string
	for try := 0; ; try++ {
		res, err := attempt()
		degraded = append(degraded, res.Degraded...)
		res.Degraded = degraded
		res.Retries = try
		res.WastedCost = wasted
		res.Cost += wasted
		if err == nil {
			return res, nil
		}
		wasted += res.Cost - res.WastedCost // this attempt's cost is now wasted
		res.WastedCost = wasted
		res.Cost = wasted
		if !faultinject.IsTransient(err) || try >= MaxRetries || ctx.Err() != nil {
			return res, err
		}
		degraded = append(degraded, fmt.Sprintf("retry#%d after %v", try+1, err))
		if err := e.backoff(ctx, try); err != nil {
			return res, opError("retry", err)
		}
	}
}

// backoff sleeps the capped exponential delay for the attempt, with
// jitter from the injector's deterministic schedule, honoring ctx.
func (e *Executor) backoff(ctx context.Context, try int) error {
	d := BackoffBase << uint(try)
	if d > BackoffCap {
		d = BackoffCap
	}
	d += time.Duration(float64(d) * e.faults.Jitter(try))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// cancelCheckMask batches context / fault-site checks in the drive loop
// to one per 64 iterator steps.
const cancelCheckMask = 63

// driveOnce runs one execution attempt. It never panics: operator
// panics are recovered and converted to typed *OperatorError values,
// and the returned Result always carries the cost consumed so far, so
// even failed attempts are billable.
//
// With a fault injector armed the run is in lockstep mode: capacity 1,
// so every batch is one row, the step gates (cancel, operator-panic and
// latency sites) fire before every 64th row, and charges, fault checks
// and emits interleave row by row. Per-site fault sequence numbers,
// kill points and retry schedules are then those of a row-at-a-time
// executor, which the chaos goldens in testdata pin. Unarmed runs use
// the configured batch size; every completed-run observable is the
// same at every capacity (cost metering is a pure function of
// per-class tuple counts — see Meter), and a budget-killed run differs
// only in Result.Rows, which no discovery consumer reads.
func (e *Executor) driveOnce(ctx context.Context, root *plan.Node, budget float64, spill bool) (res *Result, err error) {
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
		capacity = 1 // lockstep
	}
	op, err := e.buildRoot(root, meter, res, capacity)
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
				// Off-gate batches are whole windows of rows; check
				// cancellation on each, not only every 64th.
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

// buildRoot builds the plan as a batch operator tree of the capacity,
// for driveOnce.
func (e *Executor) buildRoot(root *plan.Node, meter *Meter, res *Result, capacity int) (batchOperator, error) {
	return vecEngine{e: e, meter: meter, cap: capacity}.build(root, res)
}

// epilogue is the post-drive accounting of the sequential and morsel
// paths: billing, completion classification, close errors, and the
// completed path's spill-observation fault plus selectivity collection.
func (e *Executor) epilogue(res *Result, meter *Meter, op any, runErr, closeErr error, spill bool) (*Result, error) {
	res.Cost = meter.Used + meter.Drifted
	res.Drift = meter.Drifted
	switch {
	case runErr == nil:
		res.Completed = true
	case errors.Is(runErr, ErrBudgetExceeded):
		res.Completed = false
	default:
		return res, opError("iterate", runErr)
	}
	if closeErr != nil {
		return res, opError("close", closeErr)
	}
	if res.Completed {
		// Degradation ladder: a dropped spill observation. Transient drops
		// go through the retry policy (the re-run can recover the sample);
		// persistent drops keep the completed result but leave JoinSel
		// empty, pushing the caller onto the no-information inference path.
		if spill {
			if ferr := e.faults.Check(faultinject.SiteSpillObs); ferr != nil {
				if faultinject.IsTransient(ferr) {
					return res, opError("spillobs", ferr)
				}
				res.Degraded = append(res.Degraded,
					fmt.Sprintf("spill observation dropped (%v)", ferr))
				return res, nil
			}
		}
		collectObservations(op, res.JoinSel)
	}
	return res, nil
}

// joinObserver is implemented by join operators that can report an
// exact selectivity observation after completion.
type joinObserver interface {
	observations(into map[int]float64)
}

// collectObservations gathers exact join selectivities from an
// operator tree implementing joinObserver.
func collectObservations(op any, into map[int]float64) {
	if jo, ok := op.(joinObserver); ok {
		jo.observations(into)
	}
}

// compileFilters binds the relation's filter predicates to positions.
func (e *Executor) compileFilters(rel int) []boundFilter {
	r := &e.q.Relations[rel]
	tab := e.q.Cat.MustTable(r.Table)
	out := make([]boundFilter, 0, len(r.Filters))
	for _, f := range r.Filters {
		bf := boundFilter{
			col: tab.ColumnIndex(f.Column),
			op:  f.Op,
			val: expr.Int(f.Value),
		}
		if f.IsIn() {
			bf.in = make(map[int64]bool, len(f.Values))
			for _, v := range f.Values {
				bf.in[v] = true
			}
		} else {
			// Compile int-constant comparisons (all but NE) into an
			// inclusive [lo, hi] range so the scan hot loops test two
			// integers instead of dispatching through expr.Compare.
			bf.lo, bf.hi = math.MinInt64, math.MaxInt64
			switch f.Op {
			case expr.EQ:
				bf.lo, bf.hi = f.Value, f.Value
				bf.ranged = true
			case expr.LT:
				if f.Value > math.MinInt64 {
					bf.hi = f.Value - 1
					bf.ranged = true
				}
			case expr.LE:
				bf.hi = f.Value
				bf.ranged = true
			case expr.GT:
				if f.Value < math.MaxInt64 {
					bf.lo = f.Value + 1
					bf.ranged = true
				}
			case expr.GE:
				bf.lo = f.Value
				bf.ranged = true
			}
		}
		out = append(out, bf)
	}
	return out
}

type boundFilter struct {
	col int
	op  expr.CmpOp
	val expr.Value
	in  map[int64]bool // non-nil for IN-list predicates
	// ranged marks predicates compiled to the lo ≤ v ≤ hi integer fast
	// path (see compileFilters); NULLs and non-int values still take the
	// general eval path.
	ranged bool
	lo, hi int64
}

// matchAll reports whether row ord of rel passes every filter, routing
// int values through the precompiled range fast path.
func matchAll(filters []boundFilter, rel *storage.Relation, ord int) bool {
	for i := range filters {
		f := &filters[i]
		v := rel.Value(ord, f.col)
		if f.ranged && v.K == expr.KindInt {
			if v.I < f.lo || v.I > f.hi {
				return false
			}
			continue
		}
		if !f.eval(v) {
			return false
		}
	}
	return true
}

func (f boundFilter) eval(v expr.Value) bool {
	if v.IsNull() {
		return false
	}
	if f.in != nil {
		return v.K == expr.KindInt && f.in[v.I]
	}
	c := expr.Compare(v, f.val)
	switch f.op {
	case expr.EQ:
		return c == 0
	case expr.NE:
		return c != 0
	case expr.LT:
		return c < 0
	case expr.LE:
		return c <= 0
	case expr.GT:
		return c > 0
	case expr.GE:
		return c >= 0
	default:
		return false
	}
}

func log2g(x float64) float64 { return math.Log2(x + 2) }
