// Column vectors: the storage of a relation. Each column is contiguous
// []int64 / []float64 values, or dictionary-encoded strings, plus a NULL
// bitmap, filled one value per Append. The vectorized executor's kernels
// and joins read them directly; Value reads any column, typed or
// not. A column whose values mix kinds keeps them as a []expr.Value
// vector instead and has no typed projection (Col returns nil).
package storage

import (
	"repro/internal/expr"
)

// Column is the typed vector of one relation column. At most one of
// Ints/Floats/Codes is populated, per Kind:
//
//	KindInt    → Ints[i] is the value of row i (0 where NULL)
//	KindFloat  → Floats[i] likewise
//	KindString → Codes[i] indexes Dict (0 where NULL)
//
// NULLs are word-packed in a separate bitmap; a set bit means the row's
// value is NULL and the typed slot holds the zero value. The first
// non-NULL value fixes Kind (an all-NULL column stays KindInt). The
// first value of another kind, or of a kind outside the three above,
// moves the column to an untyped []expr.Value vector for good.
type Column struct {
	Kind   expr.Kind
	Ints   []int64
	Floats []float64
	Codes  []int32
	Dict   []string

	nulls   []uint64 // nil when the column has no NULLs
	numNull int
	codes   map[string]int32 // Dict's inverse, KindString only
	mixed   []expr.Value     // every value once kinds mix; the typed fields are then empty
	kinds   uint8            // bit 1<<k set once a non-NULL value of kind k is appended
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

// Col returns the typed vector for column ordinal i, or nil when the
// ordinal is out of range or the column mixes value kinds. Callers must
// treat a nil as "read through Value".
func (r *Relation) Col(i int) *Column {
	if i < 0 || i >= len(r.cols) || r.cols[i].mixed != nil {
		return nil
	}
	return r.cols[i]
}

// Holds reports whether column col holds a string, and whether it
// holds a non-NULL value of another kind; false, false out of range.
func (r *Relation) Holds(col int) (strs, others bool) {
	if col < 0 || col >= len(r.cols) {
		return false, false
	}
	k := r.cols[col].kinds
	return k&(1<<expr.KindString) != 0, k&^(1<<expr.KindString) != 0
}

// append stores v as row i, the column's next row.
func (c *Column) append(v expr.Value, i int) {
	null := v.K == expr.KindNull
	if c.mixed == nil && !null && v.K != c.Kind {
		c.rekind(v.K, i)
	}
	if !null {
		c.kinds |= 1 << v.K
	}
	if c.mixed != nil {
		c.mixed = append(c.mixed, v)
		return
	}
	switch c.Kind {
	case expr.KindInt:
		c.Ints = append(c.Ints, v.I)
	case expr.KindFloat:
		c.Floats = append(c.Floats, v.F)
	default:
		code, ok := c.codes[v.S]
		switch {
		case null:
			code = 0
		case !ok:
			code = int32(len(c.Dict))
			c.Dict = append(c.Dict, v.S)
			c.codes[v.S] = code
		}
		c.Codes = append(c.Codes, code)
	}
	if null || c.nulls != nil {
		for len(c.nulls) <= i>>6 {
			c.nulls = append(c.nulls, 0)
		}
	}
	if null {
		c.nulls[i>>6] |= 1 << (i & 63)
		c.numNull++
	}
}

// rekind prepares the column for row n's value of kind k ≠ Kind. When
// the n rows so far are all NULL and k is float or string, their zero
// slots move to a vector of kind k; a second kind, or a kind outside
// the three, moves the column to the untyped vector.
func (c *Column) rekind(k expr.Kind, n int) {
	switch {
	case c.numNull < n || k != expr.KindFloat && k != expr.KindString:
		vals := make([]expr.Value, n, n+1)
		for i := range vals {
			vals[i] = c.value(i)
		}
		*c = Column{mixed: vals, kinds: c.kinds}
	case k == expr.KindFloat:
		c.Kind, c.Ints, c.Floats = k, nil, make([]float64, n)
	default:
		// Code 0 is reserved for NULL slots so Codes' zero value never
		// aliases a real dictionary entry.
		c.Kind, c.Ints, c.Codes, c.Dict, c.codes = k, nil, make([]int32, n), []string{""}, map[string]int32{}
	}
}

// value returns row i's value.
func (c *Column) value(i int) expr.Value {
	switch {
	case c.mixed != nil:
		return c.mixed[i]
	case c.Null(i):
		return expr.Null
	case c.Kind == expr.KindFloat:
		return expr.Float(c.Floats[i])
	case c.Kind == expr.KindString:
		return expr.Str(c.String(i))
	}
	return expr.Int(c.Ints[i])
}
