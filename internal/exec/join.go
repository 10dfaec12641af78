package exec

import (
	"io"
	"math"
	"sort"

	"repro/internal/expr"
	"repro/internal/plan"
)

// tupleEngine builds the tuple-at-a-time reference engine's operators.
// Its rows are whole base-relation rows concatenated in slot order, so
// a join reads a column at a fixed row position (see rowPos).
type tupleEngine struct {
	e     *Executor
	meter *Meter
}

func (t tupleEngine) scan(s scanSpec) operator {
	if s.index {
		return &indexScan{rel: s.rel, rows: s.rows, filters: s.filters, meter: t.meter, params: t.e, cls: s.cls}
	}
	return &seqScan{rel: s.rel, filters: s.filters, meter: t.meter, params: t.e, cls: s.cls}
}

func (t tupleEngine) join(n *plan.Node, j joinSpec, left, right operator) operator {
	jc := &joinCols{}
	for _, p := range j.preds {
		jc.ids = append(jc.ids, p.id)
		jc.leftPos = append(jc.leftPos, t.e.rowPos(n.Left, p.l))
		jc.rightPos = append(jc.rightPos, t.e.rowPos(n.Right, p.r))
	}
	b := joinBase{e: t.e, meter: t.meter, jc: jc, left: left, right: right}
	switch n.Join.Method {
	case plan.HashJoin:
		return &hashJoin{joinBase: b, clsBuild: j.cls[0], clsProbe: j.cls[1], clsOut: j.cls[2]}
	case plan.MergeJoin:
		return &mergeJoin{joinBase: b, clsMerge: j.cls[0], clsOut: j.cls[1]}
	case plan.NLJoin:
		return &nlJoin{joinBase: b, clsMat: j.cls[0], clsPair: j.cls[1], clsOut: j.cls[2]}
	default:
		return &indexNLJoin{
			joinBase:   b,
			relIdx:     j.inner,
			rel:        j.rel,
			filters:    j.filters,
			clsDescend: j.cls[0],
			clsFetch:   j.cls[1],
			clsOut:     j.cls[2],
		}
	}
}

// rowPos is the position of column ref in the tuple engine's rows of
// subtree n: the widths of the relations in the slots before ref's
// plus its column ordinal.
func (e *Executor) rowPos(n *plan.Node, ref colRef) int {
	pos, slot := ref.col, ref.slot
	for !n.IsScan() {
		if w := n.Left.NumRels(); slot >= w {
			pos += e.rowWidth(n.Left)
			n, slot = n.Right, slot-w
		} else {
			n = n.Left
		}
	}
	return pos
}

// rowWidth is the width of the tuple engine's rows of subtree n.
func (e *Executor) rowWidth(n *plan.Node) int {
	if n.IsScan() {
		return len(e.q.Cat.MustTable(e.q.Relations[n.Scan.Rel].Table).Columns)
	}
	return e.rowWidth(n.Left) + e.rowWidth(n.Right)
}

// tupleRoot runs a tuple-engine tree under the batch drive loop: each
// batch is one row, counted and never read.
type tupleRoot struct {
	operator
	b rowBatch
}

func (t *tupleRoot) NextBatch() (*rowBatch, error) {
	if _, err := t.Next(); err != nil {
		return nil, err
	}
	t.b.n = 1
	return &t.b, nil
}

// observations implements joinObserver for the tree below.
func (t *tupleRoot) observations(into map[int]float64) { collectObservations(t.operator, into) }

// joinCols is a tuple join's predicates as row positions in its
// children's rows. The first predicate is the physical
// (hash/merge/index) key; the rest are residual conditions.
type joinCols struct {
	ids      []int
	leftPos  []int
	rightPos []int
}

// residualsMatch checks predicates beyond the physical key.
func (jc *joinCols) residualsMatch(l, r expr.Row) bool {
	for k := 1; k < len(jc.ids); k++ {
		if !expr.Equal(l[jc.leftPos[k]], r[jc.rightPos[k]]) {
			return false
		}
	}
	return true
}

// joinKey is the hash key of a join-key value, false for NULL. An int
// keys as itself and an integral float as the int it equals, so 3 and
// 3.0 share a bucket; every NaN keys as one NaN, which equals only NaN;
// any other float keys by its bit pattern. A string keys by the 64-bit
// FNV-1a hash of its bytes, the hash datagen seeds its streams with, and
// a bool as 0 or 1. Keys of different values may collide, so bucket
// candidates are rechecked with sameKey.
func joinKey(v expr.Value) (int64, bool) {
	switch v.K {
	case expr.KindNull:
		return 0, false
	case expr.KindString:
		h := uint64(14695981039346656037)
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= 1099511628211
		}
		return int64(h), true
	case expr.KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case expr.KindFloat:
		switch f := v.F; {
		case f != f:
			return int64(math.Float64bits(math.NaN())), true
		case f == math.Trunc(f) && f >= -1<<63 && f < 1<<63:
			return int64(f), true
		}
		return int64(math.Float64bits(v.F)), true
	}
	return v.I, true
}

// sameKey rechecks two join keys that share a joinKey: two ints are
// equal, anything else compares with expr.Equal.
func sameKey(a, b expr.Value) bool {
	return a.K == expr.KindInt && b.K == expr.KindInt || expr.Equal(a, b)
}

// joinBase holds shared join operator state including the selectivity
// monitor (§3.1's run-time monitoring).
type joinBase struct {
	e     *Executor
	meter *Meter
	jc    *joinCols
	left  operator
	right operator
	obs   JoinObs
	// exact marks that both inputs were fully consumed, making the
	// observed selectivity exact.
	exact bool
}

// observations implements joinObserver, recursing into children.
func (b *joinBase) observations(into map[int]float64) {
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

func joinRows(l, r expr.Row) expr.Row {
	out := make(expr.Row, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// hashJoin builds on the right child, probes with the left.
type hashJoin struct {
	joinBase
	clsBuild, clsProbe, clsOut int
	table                      map[int64][]expr.Row
	cur                        expr.Row
	matches                    []expr.Row
	mi                         int
}

func (h *hashJoin) Open() error {
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	h.table = make(map[int64][]expr.Row)
	for {
		row, err := h.right.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if _, err := h.meter.ChargeN(h.clsBuild, 1); err != nil {
			return err
		}
		h.obs.RightRows++
		k, ok := joinKey(row[h.jc.rightPos[0]])
		if !ok {
			continue
		}
		h.table[k] = append(h.table[k], row)
	}
	return nil
}

func (h *hashJoin) Next() (expr.Row, error) {
	for {
		for h.mi < len(h.matches) {
			r := h.matches[h.mi]
			h.mi++
			if !sameKey(h.cur[h.jc.leftPos[0]], r[h.jc.rightPos[0]]) || !h.jc.residualsMatch(h.cur, r) {
				continue
			}
			if _, err := h.meter.ChargeN(h.clsOut, 1); err != nil {
				return nil, err
			}
			h.obs.OutRows++
			return joinRows(h.cur, r), nil
		}
		row, err := h.left.Next()
		if err == io.EOF {
			h.exact = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if _, err := h.meter.ChargeN(h.clsProbe, 1); err != nil {
			return nil, err
		}
		h.obs.LeftRows++
		k, ok := joinKey(row[h.jc.leftPos[0]])
		if !ok {
			continue
		}
		h.cur = row
		h.matches = h.table[k]
		h.mi = 0
	}
}

func (h *hashJoin) Close() error {
	if err := h.left.Close(); err != nil {
		return err
	}
	return h.right.Close()
}

// mergeJoin sorts both inputs on the key and merges.
type mergeJoin struct {
	joinBase
	clsMerge, clsOut int
	lrows, rrows     []expr.Row
	li, ri           int
	group            []expr.Row // right rows sharing the current key
	gi               int
	cur              expr.Row
}

func (m *mergeJoin) Open() error {
	if err := m.left.Open(); err != nil {
		return err
	}
	if err := m.right.Open(); err != nil {
		return err
	}
	var err error
	m.lrows, err = m.drainAndSort(m.left, m.jc.leftPos[0])
	if err != nil {
		return err
	}
	m.rrows, err = m.drainAndSort(m.right, m.jc.rightPos[0])
	if err != nil {
		return err
	}
	m.obs.LeftRows = int64(len(m.lrows))
	m.obs.RightRows = int64(len(m.rrows))
	m.li, m.ri = 0, 0
	return nil
}

func (m *mergeJoin) drainAndSort(op operator, key int) ([]expr.Row, error) {
	var rows []expr.Row
	for {
		row, err := op.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	n := float64(len(rows))
	if err := m.meter.Charge(m.e.params.SortCmp * n * log2g(n)); err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return expr.Compare(rows[a][key], rows[b][key]) < 0
	})
	return rows, nil
}

func (m *mergeJoin) Next() (expr.Row, error) {
	for {
		for m.gi < len(m.group) {
			r := m.group[m.gi]
			m.gi++
			if !m.jc.residualsMatch(m.cur, r) {
				continue
			}
			if _, err := m.meter.ChargeN(m.clsOut, 1); err != nil {
				return nil, err
			}
			m.obs.OutRows++
			return joinRows(m.cur, r), nil
		}
		if m.li >= len(m.lrows) {
			m.exact = true
			return nil, io.EOF
		}
		l := m.lrows[m.li]
		m.li++
		if _, err := m.meter.ChargeN(m.clsMerge, 1); err != nil {
			return nil, err
		}
		lk := l[m.jc.leftPos[0]]
		if lk.IsNull() {
			continue
		}
		// Advance the right cursor to the key's group.
		for m.ri < len(m.rrows) && expr.Compare(m.rrows[m.ri][m.jc.rightPos[0]], lk) < 0 {
			if _, err := m.meter.ChargeN(m.clsMerge, 1); err != nil {
				return nil, err
			}
			m.ri++
		}
		m.group = m.group[:0]
		for k := m.ri; k < len(m.rrows) && expr.Compare(m.rrows[k][m.jc.rightPos[0]], lk) == 0; k++ {
			m.group = append(m.group, m.rrows[k])
		}
		m.cur = l
		m.gi = 0
	}
}

func (m *mergeJoin) Close() error {
	if err := m.left.Close(); err != nil {
		return err
	}
	return m.right.Close()
}

// nlJoin materializes the inner child and nest-loops the outer over it.
type nlJoin struct {
	joinBase
	clsMat, clsPair, clsOut int
	inner                   []expr.Row
	cur                     expr.Row
	ii                      int
	have                    bool
}

func (n *nlJoin) Open() error {
	if err := n.left.Open(); err != nil {
		return err
	}
	if err := n.right.Open(); err != nil {
		return err
	}
	for {
		row, err := n.right.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if _, err := n.meter.ChargeN(n.clsMat, 1); err != nil {
			return err
		}
		n.inner = append(n.inner, row)
	}
	n.obs.RightRows = int64(len(n.inner))
	return nil
}

func (n *nlJoin) Next() (expr.Row, error) {
	for {
		if !n.have {
			row, err := n.left.Next()
			if err == io.EOF {
				n.exact = true
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			n.obs.LeftRows++
			n.cur = row
			n.ii = 0
			n.have = true
		}
		for n.ii < len(n.inner) {
			r := n.inner[n.ii]
			n.ii++
			if _, err := n.meter.ChargeN(n.clsPair, 1); err != nil {
				return nil, err
			}
			if !expr.Equal(n.cur[n.jc.leftPos[0]], r[n.jc.rightPos[0]]) || !n.jc.residualsMatch(n.cur, r) {
				continue
			}
			if _, err := n.meter.ChargeN(n.clsOut, 1); err != nil {
				return nil, err
			}
			n.obs.OutRows++
			return joinRows(n.cur, r), nil
		}
		n.have = false
	}
}

func (n *nlJoin) Close() error {
	if err := n.left.Close(); err != nil {
		return err
	}
	return n.right.Close()
}
