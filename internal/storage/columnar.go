// Columnar projections of the row store. Each relation can carry typed
// column vectors — contiguous []int64 / []float64 values, or
// dictionary-encoded strings — built once at load time alongside the
// row view. The vectorized executor's joins pass row ordinals, not
// values, and read a key, residual or filter column at an ordinal from
// these vectors; the row view serves the tuple engine, index builds and
// the columns the vectors cannot hold (NULL values, mixed kinds). The
// two views must stay in sync: Append invalidates the vectors (see
// storage.go) and BuildColumns rebuilds them.
package storage

import (
	"repro/internal/expr"
)

// Column is the typed columnar projection of one relation column. At
// most one of Ints/Floats/Codes is populated, per Kind:
//
//	KindInt    → Ints[i] is the value of row i (0 where NULL)
//	KindFloat  → Floats[i] likewise
//	KindString → Codes[i] indexes Dict (0 where NULL)
//
// NULLs are word-packed in a separate bitmap; a set bit means the row's
// value is NULL and the typed slot holds the zero value. Columns with
// mixed value kinds (or kinds outside the three above) have no columnar
// projection — Relation.Col returns nil for them and readers fall back
// to the row view.
type Column struct {
	Kind   expr.Kind
	Ints   []int64
	Floats []float64
	Codes  []int32
	Dict   []string

	nulls   []uint64 // nil when the column has no NULLs
	numNull int
}

// HasNulls reports whether any row is NULL in this column.
func (c *Column) HasNulls() bool { return c.numNull > 0 }

// NumNulls returns the number of NULL rows in this column.
func (c *Column) NumNulls() int { return c.numNull }

// Null reports whether row i is NULL.
func (c *Column) Null(i int) bool {
	if c.nulls == nil {
		return false
	}
	return c.nulls[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// NullWords exposes the packed NULL bitmap (64 rows per word, LSB
// first), or nil when the column is NULL-free. Read-only.
func (c *Column) NullWords() []uint64 { return c.nulls }

// String decodes the dictionary value of row i (KindString columns).
func (c *Column) String(i int) string { return c.Dict[c.Codes[i]] }

// BuildColumns (re)builds the typed column vectors from the current
// rows. Call it once after loading; Append discards the vectors along
// with the other derived structures.
func (r *Relation) BuildColumns() {
	cols := make([]*Column, len(r.Cols))
	for ci := range r.Cols {
		cols[ci] = buildColumn(r.Rows, ci)
	}
	r.cols = cols
}

// HasColumns reports whether column vectors have been built.
func (r *Relation) HasColumns() bool { return r.cols != nil }

// Col returns the typed vector for column ordinal i, or nil when the
// vectors are not built, the ordinal is out of range, or the column is
// not columnarizable (mixed value kinds). Callers must treat a nil as
// "use the row view".
func (r *Relation) Col(i int) *Column {
	if r.cols == nil || i < 0 || i >= len(r.cols) {
		return nil
	}
	return r.cols[i]
}

// buildColumn projects one column ordinal out of the rows, or returns
// nil when the column mixes value kinds. An all-NULL (or empty) column
// is typed as KindInt so kernels still have a vector to run over.
func buildColumn(rows []expr.Row, ci int) *Column {
	kind := expr.KindNull
	for _, row := range rows {
		k := row[ci].K
		if k == expr.KindNull {
			continue
		}
		if kind == expr.KindNull {
			kind = k
			continue
		}
		if kind != k {
			return nil // mixed kinds: no columnar projection
		}
	}
	switch kind {
	case expr.KindNull:
		kind = expr.KindInt
	case expr.KindInt, expr.KindFloat, expr.KindString:
	default:
		return nil
	}

	n := len(rows)
	c := &Column{Kind: kind}
	setNull := func(i int) {
		if c.nulls == nil {
			c.nulls = make([]uint64, (n+63)/64)
		}
		c.nulls[uint(i)>>6] |= 1 << (uint(i) & 63)
		c.numNull++
	}
	switch kind {
	case expr.KindInt:
		c.Ints = make([]int64, n)
		for i, row := range rows {
			if v := row[ci]; v.K == expr.KindNull {
				setNull(i)
			} else {
				c.Ints[i] = v.I
			}
		}
	case expr.KindFloat:
		c.Floats = make([]float64, n)
		for i, row := range rows {
			if v := row[ci]; v.K == expr.KindNull {
				setNull(i)
			} else {
				c.Floats[i] = v.F
			}
		}
	case expr.KindString:
		c.Codes = make([]int32, n)
		codes := make(map[string]int32)
		// Code 0 is reserved for NULL slots so Codes' zero value never
		// aliases a real dictionary entry.
		c.Dict = []string{""}
		for i, row := range rows {
			v := row[ci]
			if v.K == expr.KindNull {
				setNull(i)
				continue
			}
			code, ok := codes[v.S]
			if !ok {
				code = int32(len(c.Dict))
				c.Dict = append(c.Dict, v.S)
				codes[v.S] = code
			}
			c.Codes[i] = code
		}
	}
	return c
}
