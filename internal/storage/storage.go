// Package storage implements the in-memory store backing the executor:
// per-table typed column vectors (see columnar.go), which are the
// storage itself — Append copies each value into its column and keeps
// no row — plus one sorted index per indexed int column. The store is
// immutable after loading, matching the paper's read-only OLAP setting;
// an Append after BuildIndex discards the indexes so they are never stale.
package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/expr"
)

// Relation holds one table as one column per attribute, plus indexes.
type Relation struct {
	// Name is the table name.
	Name string
	// Cols are the column names in row order.
	Cols []string

	n      int
	cols   []*Column
	idx    []*index // by column ordinal; nil entries are unindexed
	colIdx map[string]int
}

// index is one int column's index in CSR form: keys holds the distinct
// values in ascending order, and the rows whose value is keys[i] are
// ords[offs[i]:offs[i+1]], in ascending ordinal order.
type index struct {
	keys []int64
	offs []int32
	ords []int32
}

// NewRelation creates an empty relation with the given column names.
func NewRelation(name string, cols []string) *Relation {
	r := &Relation{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols)), cols: make([]*Column, len(cols))}
	for i, c := range cols {
		r.colIdx[c] = i
		r.cols[i] = &Column{Kind: expr.KindInt}
	}
	return r
}

// ColumnIndex returns the ordinal of the named column, or -1. Lookups
// hit the name→ordinal map built at load time; relations constructed as
// zero values (without NewRelation) fall back to a linear scan.
func (r *Relation) ColumnIndex(name string) int {
	if r.colIdx != nil {
		if i, ok := r.colIdx[name]; ok {
			return i
		}
		return -1
	}
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Append copies row's values into the columns; it must have exactly
// len(Cols) values and is not retained. Appending discards every index
// rather than leaving it silently stale: an index probe would drop the
// new rows without any error. Callers that append after BuildIndex must
// re-run it (Lookup panics loudly on a discarded index).
func (r *Relation) Append(row expr.Row) {
	if len(row) != len(r.Cols) {
		panic(fmt.Sprintf("storage: row width %d != %d for %s", len(row), len(r.Cols), r.Name))
	}
	if r.cols == nil { // a zero-value Relation
		*r = *NewRelation(r.Name, r.Cols)
	}
	for i, c := range r.cols {
		c.append(row[i], r.n)
	}
	r.n++
	r.idx = nil
}

// NumRows returns the relation cardinality.
func (r *Relation) NumRows() int { return r.n }

// Value returns column col's value at row ordinal ord.
func (r *Relation) Value(ord, col int) expr.Value { return r.cols[col].value(ord) }

// BuildIndex builds (or rebuilds) the index on an int column: by a
// counting sort when the column's key span is below 4n, by sorting
// (value, ordinal) pairs otherwise (see group). It panics unless the
// column is a NULL-free int vector.
func (r *Relation) BuildIndex(col int) {
	x := group(r.cleanInts(col))
	if r.idx == nil {
		r.idx = make([]*index, len(r.Cols))
	}
	r.idx[col] = x
}

// Runs returns an int column's values grouped into runs of equal
// values: keys holds the distinct values in ascending order, and
// offs[i+1]−offs[i] rows hold keys[i]. An indexed column returns its
// index's arrays, which are read-only; any other column is grouped as
// BuildIndex groups it, and nothing is kept. It panics unless the
// column is a NULL-free int vector.
func (r *Relation) Runs(col int) (keys []int64, offs []int32) {
	if r.HasIndex(col) {
		return r.idx[col].keys, r.idx[col].offs
	}
	x := group(r.cleanInts(col))
	return x.keys, x.offs
}

// cleanInts returns column col's int vector, panicking unless it is a
// NULL-free int column.
func (r *Relation) cleanInts(col int) []int64 {
	c := r.Col(col)
	if c == nil || c.Kind != expr.KindInt || c.HasNulls() {
		panic(fmt.Sprintf("storage: index on non-int column %s.%s", r.Name, r.Cols[col]))
	}
	return c.Ints
}

// denseFactor bounds the key span that group counts instead of sorting:
// a span below denseFactor·n keeps the count array (4 bytes a slot) at
// most 16 bytes a row, the size of a comparison sort's (key, ordinal)
// entry.
const denseFactor = 4

// group returns vals in CSR form. When the key span hi − lo is below
// denseFactor·len(vals), as on serial keys, foreign keys and bounded
// attribute ranges, it counts each key's rows in linear time;
// otherwise it sorts (value, ordinal) pairs. Both arms produce the same
// arrays.
func group(vals []int64) *index {
	if len(vals) > 0 {
		lo, hi := slices.Min(vals), slices.Max(vals)
		// The uint64 difference is exact for every int64 pair, MinInt64
		// and MaxInt64 included.
		if span := uint64(hi) - uint64(lo); span < denseFactor*uint64(len(vals)) {
			return countGroup(vals, lo, span+1)
		}
	}
	return sortGroup(vals)
}

// countGroup groups vals, whose keys all lie in [lo, lo+span), by a
// counting sort: one pass counts each key's rows, one turns the counts
// into run starts, and one places the ordinals in ascending order.
func countGroup(vals []int64, lo int64, span uint64) *index {
	starts := make([]int32, span)
	for _, v := range vals {
		starts[uint64(v)-uint64(lo)]++
	}
	distinct := 0
	for _, n := range starts {
		if n != 0 {
			distinct++
		}
	}
	x := &index{
		keys: make([]int64, 0, distinct),
		offs: make([]int32, 0, distinct+1),
		ords: make([]int32, len(vals)),
	}
	at := int32(0)
	for k, n := range starts {
		if n != 0 {
			x.keys = append(x.keys, int64(uint64(lo)+uint64(k)))
			x.offs = append(x.offs, at)
			starts[k] = at
			at += n
		}
	}
	x.offs = append(x.offs, at)
	for i, v := range vals {
		k := uint64(v) - uint64(lo)
		x.ords[starts[k]] = int32(i)
		starts[k]++
	}
	return x
}

// sortGroup groups vals by sorting (value, ordinal) pairs.
func sortGroup(vals []int64) *index {
	type entry struct {
		key int64
		ord int32
	}
	es := make([]entry, len(vals))
	for i, v := range vals {
		es[i] = entry{v, int32(i)}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	distinct := 0
	for i := range es {
		if i == 0 || es[i].key != es[i-1].key {
			distinct++
		}
	}
	x := &index{
		keys: make([]int64, 0, distinct),
		offs: make([]int32, 0, distinct+1),
		ords: make([]int32, len(es)),
	}
	for i, e := range es {
		if i == 0 || e.key != es[i-1].key {
			x.keys = append(x.keys, e.key)
			x.offs = append(x.offs, int32(i))
		}
		x.ords[i] = e.ord
	}
	x.offs = append(x.offs, int32(len(es)))
	return x
}

// HasIndex reports whether an index exists on the column.
func (r *Relation) HasIndex(col int) bool {
	return col < len(r.idx) && r.idx[col] != nil
}

func (r *Relation) mustIndex(col int) *index {
	if !r.HasIndex(col) {
		panic(fmt.Sprintf("storage: no index on %s column %d", r.Name, col))
	}
	return r.idx[col]
}

// Lookup returns the row ordinals whose column equals key, ascending,
// or nil. It first tries position key − keys[0], which hits on every
// dense column (serial keys and foreign keys into them), and falls back
// to binary search. It panics if the column has no index.
func (r *Relation) Lookup(col int, key int64) []int32 {
	x := r.mustIndex(col)
	if len(x.keys) == 0 {
		return nil
	}
	i := uint64(key) - uint64(x.keys[0])
	if i >= uint64(len(x.keys)) || x.keys[i] != key {
		j, ok := slices.BinarySearch(x.keys, key)
		if !ok {
			return nil
		}
		i = uint64(j)
	}
	return x.ords[x.offs[i]:x.offs[i+1]]
}

// RangeLookup returns the row ordinals with lo ≤ value ≤ hi, ordered by
// (value, ordinal), or nil when none match. It panics if the column has
// no index.
func (r *Relation) RangeLookup(col int, lo, hi int64) []int32 {
	x := r.mustIndex(col)
	if lo > hi {
		return nil
	}
	start, _ := slices.BinarySearch(x.keys, lo)
	end, found := slices.BinarySearch(x.keys, hi)
	if found {
		end++
	}
	if start >= end {
		return nil
	}
	return x.ords[x.offs[start]:x.offs[end]]
}

// Store is a named collection of relations.
type Store struct {
	rels map[string]*Relation
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{rels: make(map[string]*Relation)} }

// Add registers a relation, replacing any previous one of the same name.
func (s *Store) Add(r *Relation) { s.rels[r.Name] = r }

// Relation returns the named relation, or nil.
func (s *Store) Relation(name string) *Relation { return s.rels[name] }

// MustRelation returns the named relation or panics.
func (s *Store) MustRelation(name string) *Relation {
	r := s.rels[name]
	if r == nil {
		panic("storage: unknown relation " + name)
	}
	return r
}

// Names returns the relation names in unspecified order.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
