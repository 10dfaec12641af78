package exec

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/expr"
	"repro/internal/plan"
)

// joinCols resolves the join predicates of a node to positions in the
// left and right child schemas. The first predicate is the physical
// (hash/merge/index) key; the rest are residual conditions.
type joinCols struct {
	ids      []int
	leftPos  []int
	rightPos []int
}

func (e *Executor) resolveJoinCols(n *plan.Node, ls, rs *schema) (*joinCols, error) {
	jc := &joinCols{}
	for _, id := range n.Join.JoinIDs {
		names := e.keyNames(id)
		lName, rName := names[0], names[1]
		lp, rp := ls.indexOf(lName), rs.indexOf(rName)
		if lp < 0 || rp < 0 {
			// The predicate may be oriented the other way round.
			lp, rp = ls.indexOf(rName), rs.indexOf(lName)
			if lp < 0 || rp < 0 {
				return nil, fmt.Errorf("exec: join %d columns not found in children", id)
			}
		}
		jc.ids = append(jc.ids, id)
		jc.leftPos = append(jc.leftPos, lp)
		jc.rightPos = append(jc.rightPos, rp)
	}
	return jc, nil
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

func (e *Executor) buildJoin(n *plan.Node, meter *Meter, res *Result) (operator, *schema, error) {
	lop, ls, err := e.build(n.Left, meter, res)
	if err != nil {
		return nil, nil, err
	}
	switch n.Join.Method {
	case plan.HashJoin, plan.MergeJoin, plan.NLJoin:
		rop, rs, err := e.build(n.Right, meter, res)
		if err != nil {
			return nil, nil, err
		}
		jc, err := e.resolveJoinCols(n, ls, rs)
		if err != nil {
			return nil, nil, err
		}
		sch := concatSchema(ls, rs)
		switch n.Join.Method {
		case plan.HashJoin:
			return &hashJoin{
				joinBase: base(e, meter, jc, lop, rop),
				clsBuild: meter.Class(e.params.HashBuild),
				clsProbe: meter.Class(e.params.HashProbe),
				clsOut:   meter.Class(e.params.Tuple),
			}, sch, nil
		case plan.MergeJoin:
			return &mergeJoin{
				joinBase: base(e, meter, jc, lop, rop),
				clsMerge: meter.Class(e.params.Merge),
				clsOut:   meter.Class(e.params.Tuple),
			}, sch, nil
		default:
			return &nlJoin{
				joinBase: base(e, meter, jc, lop, rop),
				clsMat:   meter.Class(e.params.Mat),
				clsPair:  meter.Class(e.params.NLPair),
				clsOut:   meter.Class(e.params.Tuple),
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
		if !relation.HasIndex(innerCol) {
			return nil, nil, fmt.Errorf("exec: no index on %s column %d for INL join",
				relation.Name, innerCol)
		}
		op := &indexNLJoin{
			joinBase:   base(e, meter, jc, lop, nil),
			relIdx:     rel,
			rel:        relation,
			filters:    e.compileFilters(rel),
			clsDescend: meter.Class(e.params.IdxDescend * log2g(float64(relation.NumRows()))),
			clsFetch:   meter.Class(e.params.IdxTuple),
			clsOut:     meter.Class(e.params.Tuple),
		}
		return op, concatSchema(ls, rs), nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown join method")
	}
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

func base(e *Executor, meter *Meter, jc *joinCols, l, r operator) joinBase {
	return joinBase{e: e, meter: meter, jc: jc, left: l, right: r}
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
