package exec

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

// refJoin is the row oracle of the join suites: a nested loop over the
// rows of query relations l and r that pass their filters, keeping each
// pair whose values compare equal under expr.Compare on every join
// predicate in ids. NULL equals nothing. It returns the matching (l, r)
// row ordinals in loop order. It shares no code with the executor: no
// join key, no filter kernel, no index.
func refJoin(store *storage.Store, q *query.Query, l, r int, ids []int) [][2]int32 {
	lrel, rrel := store.MustRelation(q.Relations[l].Table), store.MustRelation(q.Relations[r].Table)
	type colPair struct{ lc, rc int }
	var cols []colPair
	for _, id := range ids {
		j := q.Joins[id]
		if j.LeftRel == l {
			cols = append(cols, colPair{lrel.ColumnIndex(j.LeftCol), rrel.ColumnIndex(j.RightCol)})
		} else {
			cols = append(cols, colPair{lrel.ColumnIndex(j.RightCol), rrel.ColumnIndex(j.LeftCol)})
		}
	}
	var out [][2]int32
	for lo := range lrel.NumRows() {
		if !refPasses(lrel, q.Relations[l].Filters, lo) {
			continue
		}
	pairs:
		for ro := range rrel.NumRows() {
			if !refPasses(rrel, q.Relations[r].Filters, ro) {
				continue
			}
			for _, c := range cols {
				a, b := lrel.Value(lo, c.lc), rrel.Value(ro, c.rc)
				if a.IsNull() || b.IsNull() || expr.Compare(a, b) != 0 {
					continue pairs
				}
			}
			out = append(out, [2]int32{int32(lo), int32(ro)})
		}
	}
	return out
}

// refPasses reports whether row ord of rel passes every filter: a
// non-NULL value whose expr.Compare with the constant satisfies the
// operator, or, for an IN-list, an int equal to one of its values.
func refPasses(rel *storage.Relation, filters []query.FilterPred, ord int) bool {
	for _, f := range filters {
		v := rel.Value(ord, rel.ColumnIndex(f.Column))
		if v.IsNull() {
			return false
		}
		if f.IsIn() {
			if v.K != expr.KindInt || !slices.Contains(f.Values, v.I) {
				return false
			}
			continue
		}
		c := expr.Compare(v, expr.Int(f.Value))
		ok := map[expr.CmpOp]bool{
			expr.EQ: c == 0, expr.NE: c != 0, expr.LT: c < 0, expr.LE: c <= 0, expr.GT: c > 0, expr.GE: c >= 0,
		}[f.Op]
		if !ok {
			return false
		}
	}
	return true
}

// refCount is how many rows of query relation rel pass its filters.
func refCount(store *storage.Store, q *query.Query, rel int) int {
	relation := store.MustRelation(q.Relations[rel].Table)
	n := 0
	for ord := range relation.NumRows() {
		if refPasses(relation, q.Relations[rel].Filters, ord) {
			n++
		}
	}
	return n
}

// joinPairs builds a two-relation join plan and drains its root at the
// batch capacity, returning its rows as (left, right) ordinal pairs.
func joinPairs(e *Executor, p *plan.Node, capacity int) ([][2]int32, error) {
	op, err := e.buildRoot(p, &Meter{}, &Result{}, capacity)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	if err := op.Open(); err != nil {
		return nil, err
	}
	var out [][2]int32
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.n; i++ {
			out = append(out, [2]int32{b.ords[0][i], b.ords[1][i]})
		}
	}
}

// sortedPairs returns pairs sorted, so two multisets compare with
// slices.Equal.
func sortedPairs(pairs [][2]int32) [][2]int32 {
	s := slices.Clone(pairs)
	slices.SortFunc(s, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return s
}

// fuzzEdges are the key values a fuzzed column draws from besides small
// numbers: NULL, NaNs with different payloads, ±0, ±Inf, the ints and
// floats around 2^53, the int64 extremes and the floats at ±2^63,
// strings, and the int whose value is 0.5's bit pattern, which shares a
// hash key with 0.5.
var fuzzEdges = []expr.Value{
	expr.Null,
	expr.Float(math.NaN()),
	expr.Float(math.Float64frombits(0x7ff8000000000002)),
	expr.Float(math.Float64frombits(0xfff0000000000001)),
	expr.Float(0),
	expr.Float(math.Copysign(0, -1)),
	expr.Float(math.Inf(1)),
	expr.Float(math.Inf(-1)),
	expr.Int(1 << 53),
	expr.Int(1<<53 + 1),
	expr.Float(1 << 53),
	expr.Int(math.MinInt64),
	expr.Int(math.MaxInt64),
	expr.Float(-1 << 63),
	expr.Float(1 << 63),
	expr.Str("a"),
	expr.Str("b"),
	expr.Int(int64(math.Float64bits(0.5))),
}

// fuzzBytes reads a fuzz input one byte at a time, zero past its end.
type fuzzBytes []byte

func (f *fuzzBytes) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// value decodes one key value. The mode restricts the kinds a column
// draws: 0 ints, 1 numbers, 2 strings, 3 anything but NULL outside the
// edges. A byte from 128 draws an edge value (modes 1 and 3; a string
// edge is NULL in mode 1). Below, bits 2–4 pick a small number −3..3 or
// a letter, and the low two bits its kind: an int, an integral float, a
// half, or NULL (a string in mode 3).
func (f *fuzzBytes) value(mode byte) expr.Value {
	b := f.next()
	if b >= 128 && mode%2 == 1 {
		v := fuzzEdges[int(b-128)%len(fuzzEdges)]
		if mode == 1 && v.K == expr.KindString {
			return expr.Null
		}
		return v
	}
	small := int64(b>>2%7) - 3
	switch {
	case b&3 == 3 && mode != 3:
		return expr.Null
	case b&3 == 3 || mode == 2:
		return expr.Str(string(rune('a' + b>>2%4)))
	case mode == 0 || b&3 == 0:
		return expr.Int(small)
	case b&3 == 1:
		return expr.Float(float64(small))
	}
	return expr.Float(float64(small) + 0.5)
}

// filter decodes an optional filter on column col: absent on an even
// first byte, else an operator and an int constant, small or extreme.
func (f *fuzzBytes) filter(col string) []query.FilterPred {
	b, c := f.next(), f.next()
	if b&1 == 0 {
		return nil
	}
	ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	v := int64(c%7) - 3
	switch c >> 5 {
	case 5:
		v = math.MinInt64
	case 6:
		v = math.MaxInt64
	case 7:
		v = 1 << 53
	}
	return []query.FilterPred{{Column: col, Op: ops[int(b>>1)%len(ops)], Value: v}}
}

// fuzzJoinCase decodes two relations a and b of at most 64 rows, each
// with a serial id and a fuzzed key column, the join a_k = b_k, and an
// optional filter per side on its key (none on a key holding strings,
// which no filter compares with). A key that is a NULL-free int vector
// is indexed.
func fuzzJoinCase(data []byte) (*query.Query, *storage.Store) {
	in := fuzzBytes(data)
	c := catalog.New("fuzz", 1)
	store := storage.NewStore()
	q := &query.Query{Name: "fuzz", Cat: c,
		Joins: []query.Join{{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "a_k", RightCol: "b_k"}}}
	for _, x := range []string{"a", "b"} {
		mode, rows := in.next()%4, int(in.next()%65)
		c.AddTable(&catalog.Table{Name: x, BaseRows: int64(max(rows, 1)), Columns: []catalog.Column{
			{Name: x + "_id", Type: catalog.Int64, Dist: catalog.Serial},
			{Name: x + "_k", Type: catalog.Float64},
		}})
		rel := storage.NewRelation(x, []string{x + "_id", x + "_k"})
		for i := range rows {
			rel.Append(expr.Row{expr.Int(int64(i)), in.value(mode)})
		}
		if k := rel.Col(1); k != nil && k.Kind == expr.KindInt && !k.HasNulls() {
			rel.BuildIndex(1)
		}
		store.Add(rel)
		r := query.Relation{Table: x, Alias: x}
		if strs, _ := rel.Holds(1); !strs {
			r.Filters = in.filter(x + "_k")
		} else {
			in.next()
			in.next()
		}
		q.Relations = append(q.Relations, r)
	}
	return q, store
}

// checkJoinMethods runs a_k = b_k by every join method, from either
// side and at batch capacities 1, 7 and 1024, and compares each result
// multiset with refJoin's; Run's Rows and observed selectivity must
// match it too. For two int key columns TrueJoinSel·|L|·|R| must count
// the same pairs. Keys that hold a string and a non-NULL non-string
// between them must instead be refused at build, at cost 0, by every
// method.
func checkJoinMethods(t *testing.T, q *query.Query, store *storage.Store) {
	t.Helper()
	a, b := store.MustRelation("a"), store.MustRelation("b")
	astr, aother := a.Holds(1)
	bstr, bother := b.Holds(1)
	refused := (astr || bstr) && (aother || bother)
	var want [][2]int32
	if !refused {
		want = sortedPairs(refJoin(store, q, 0, 1, []int{0}))
	}
	for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NLJoin, plan.IndexNLJoin} {
		for _, ends := range [][2]int{{0, 1}, {1, 0}} {
			inner := store.MustRelation(q.Relations[ends[1]].Table)
			if m == plan.IndexNLJoin && !inner.HasIndex(1) {
				continue
			}
			p := plan.NewJoin(m, []int{0}, plan.NewScan(ends[0], plan.SeqScan), plan.NewScan(ends[1], plan.SeqScan))
			tag := fmt.Sprintf("%v outer=%s", m, q.Relations[ends[0]].Alias)
			res, err := New(q, store, cost.DefaultParams()).Run(p, 0)
			if refused {
				var oe *OperatorError
				if !errors.As(err, &oe) || oe.Op != "build" || res == nil || res.Cost != 0 {
					t.Fatalf("%s: string ⋈ non-string ran: %+v, %v; want a build refusal at cost 0", tag, res, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if res.Rows != int64(len(want)) {
				t.Fatalf("%s: %d rows, reference %d", tag, res.Rows, len(want))
			}
			l, r := refCount(store, q, ends[0]), refCount(store, q, ends[1])
			sel := JoinObs{LeftRows: int64(l), RightRows: int64(r), OutRows: int64(len(want))}.Sel()
			if got, ok := res.JoinSel[0]; !ok || got != sel {
				t.Fatalf("%s: observed selectivity %v (present %v), reference %v", tag, got, ok, sel)
			}
			for _, capacity := range []int{1, 7, DefaultBatchSize} {
				got, err := joinPairs(New(q, store, cost.DefaultParams()), p, capacity)
				if err != nil {
					t.Fatalf("%s capacity=%d: %v", tag, capacity, err)
				}
				if ends[0] == 1 {
					for i := range got {
						got[i] = [2]int32{got[i][1], got[i][0]}
					}
				}
				if got = sortedPairs(got); !slices.Equal(got, want) {
					t.Fatalf("%s capacity=%d: rows %v, reference %v", tag, capacity, got, want)
				}
			}
		}
	}
	if refused {
		return
	}
	ak, bk := a.Col(1), b.Col(1)
	if ak == nil || ak.Kind != expr.KindInt || bk == nil || bk.Kind != expr.KindInt {
		return
	}
	sel, err := stats.TrueJoinSel(store, q, q.Joins[0])
	if err != nil {
		t.Fatalf("TrueJoinSel over int keys: %v", err)
	}
	l, r := refCount(store, q, 0), refCount(store, q, 1)
	if got := int64(math.Round(sel * float64(l) * float64(r))); got != int64(len(want)) {
		t.Fatalf("TrueJoinSel·|L|·|R| = %d, reference %d", got, len(want))
	}
}

// FuzzJoinMethodsAgree decodes two small relations of int, float,
// string and NULL keys, edge values included, and checks that every
// join method returns the reference nested loop's rows (see
// checkJoinMethods).
func FuzzJoinMethodsAgree(f *testing.F) {
	// side encodes one relation: its mode, its keys and its filter.
	side := func(mode byte, filter [2]byte, keys ...byte) []byte {
		return append(append([]byte{mode, byte(len(keys))}, keys...), filter[:]...)
	}
	iv := func(v int) byte { return byte(v+3) << 2 } // an int; a letter in mode 2
	fv := func(v int) byte { return iv(v) | 1 }      // an integral float
	hv := func(v int) byte { return iv(v) | 2 }      // v + 0.5
	edge := func(i int) byte { return byte(128 + i) }
	const null = 3
	var none [2]byte
	// An int key with NULLs, filtered a_k >= 0, against an indexed one.
	f.Add(slices.Concat(side(0, [2]byte{11, 3}, iv(-1), iv(0), null, iv(1), iv(0), iv(2)),
		side(0, none, iv(0), iv(0), iv(1), iv(2), iv(-3))))
	// Integral floats, halves, ±0 and 2^53 as int and float, filtered
	// a_k <= 2, against an indexed int key.
	f.Add(slices.Concat(side(1, [2]byte{7, 5}, fv(1), hv(1), iv(1), edge(4), edge(5), fv(0), edge(8), edge(10), null),
		side(0, none, iv(1), iv(0), iv(0), iv(2))))
	// NaN payloads and ±Inf on both sides.
	f.Add(slices.Concat(side(1, none, edge(1), edge(2), edge(3), edge(4), edge(5), edge(6), edge(7)),
		side(1, none, edge(1), edge(3), edge(5), edge(6), edge(7), fv(0))))
	// Strings against strings, and strings against ints (refused).
	f.Add(slices.Concat(side(2, none, iv(0), iv(1), iv(1), null, iv(2)), side(2, none, iv(1), iv(2), iv(3), null)))
	f.Add(slices.Concat(side(2, none, iv(0), iv(1)), side(0, none, iv(0), iv(1))))
	// The int64 extremes and the floats at ±2^63, filtered a_k >
	// MinInt64, against an indexed int key filtered b_k < MaxInt64.
	f.Add(slices.Concat(side(3, [2]byte{9, 160}, edge(8), edge(9), edge(10), edge(11), edge(12), edge(13), edge(14), iv(0)),
		side(1, [2]byte{5, 192}, edge(11), edge(12), edge(8), edge(9))))
	// 0.5 against the int that shares its hash key.
	f.Add(slices.Concat(side(1, none, hv(0), iv(1), fv(1)), side(1, none, edge(17), iv(1))))
	// Int keys with NULLs on both sides, unfiltered and b_k <> 2: a NULL
	// matches nothing, though its slot holds 0.
	f.Add(slices.Concat(side(0, none, null, iv(1)), side(0, none, null, iv(0), iv(1))))
	f.Add(slices.Concat(side(0, none, iv(1), iv(1), null, iv(2), iv(-3)), side(0, [2]byte{3, 5}, iv(1), null, iv(2), iv(2))))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, store := fuzzJoinCase(data)
		checkJoinMethods(t, q, store)
	})
}
