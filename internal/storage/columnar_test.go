package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/expr"
)

func TestBuildColumnsTypedVectors(t *testing.T) {
	r := NewRelation("t", []string{"i", "f", "s"})
	r.Append(expr.Row{expr.Int(7), expr.Float(1.5), expr.Str("a")})
	r.Append(expr.Row{expr.Int(-3), expr.Float(2.5), expr.Str("b")})
	r.Append(expr.Row{expr.Int(9), expr.Float(0), expr.Str("a")})

	ic := r.Col(0)
	if ic == nil || ic.Kind != expr.KindInt {
		t.Fatalf("int column = %+v", ic)
	}
	if ic.Ints[0] != 7 || ic.Ints[1] != -3 || ic.Ints[2] != 9 {
		t.Errorf("Ints = %v", ic.Ints)
	}
	if ic.HasNulls() || ic.NullWords() != nil {
		t.Error("null-free column must have nil bitmap")
	}

	fc := r.Col(1)
	if fc == nil || fc.Kind != expr.KindFloat || fc.Floats[1] != 2.5 {
		t.Fatalf("float column = %+v", fc)
	}

	sc := r.Col(2)
	if sc == nil || sc.Kind != expr.KindString {
		t.Fatalf("string column = %+v", sc)
	}
	if sc.String(0) != "a" || sc.String(1) != "b" || sc.String(2) != "a" {
		t.Errorf("dict decode = %q %q %q", sc.String(0), sc.String(1), sc.String(2))
	}
	if sc.Codes[0] != sc.Codes[2] || sc.Codes[0] == sc.Codes[1] {
		t.Errorf("dictionary codes not shared: %v", sc.Codes)
	}

	if r.Col(-1) != nil || r.Col(3) != nil {
		t.Error("out-of-range Col must be nil")
	}
}

func TestBuildColumnsNulls(t *testing.T) {
	r := NewRelation("t", []string{"v"})
	for i := int64(0); i < 130; i++ {
		if i%5 == 0 {
			r.Append(expr.Row{expr.Null})
		} else {
			r.Append(expr.Row{expr.Int(i)})
		}
	}
	c := r.Col(0)
	if c == nil || c.Kind != expr.KindInt {
		t.Fatalf("column = %+v", c)
	}
	if !c.HasNulls() || c.NumNulls() != 26 {
		t.Fatalf("NumNulls = %d, want 26", c.NumNulls())
	}
	for i := 0; i < 130; i++ {
		if got, want := c.Null(i), i%5 == 0; got != want {
			t.Fatalf("Null(%d) = %v, want %v", i, got, want)
		}
		if i%5 != 0 && c.Ints[i] != int64(i) {
			t.Fatalf("Ints[%d] = %d", i, c.Ints[i])
		}
	}
	// Crossing a bitmap word boundary (rows 64, 128) must be exact.
	if len(c.NullWords()) != 3 {
		t.Errorf("bitmap words = %d, want 3", len(c.NullWords()))
	}
}

func TestBuildColumnsMixedKindFallsBack(t *testing.T) {
	r := NewRelation("t", []string{"m", "ok"})
	r.Append(expr.Row{expr.Int(1), expr.Int(10)})
	r.Append(expr.Row{expr.Str("x"), expr.Int(20)})
	if r.Col(0) != nil {
		t.Error("mixed-kind column must have no columnar projection")
	}
	if r.Value(0, 0) != expr.Int(1) || r.Value(1, 0) != expr.Str("x") {
		t.Errorf("mixed-kind values = %v, %v", r.Value(0, 0), r.Value(1, 0))
	}
	if c := r.Col(1); c == nil || c.Ints[1] != 20 {
		t.Errorf("clean sibling column must still be columnar: %+v", c)
	}
}

func TestBuildColumnsAllNull(t *testing.T) {
	r := NewRelation("t", []string{"v"})
	r.Append(expr.Row{expr.Null})
	r.Append(expr.Row{expr.Null})
	c := r.Col(0)
	if c == nil || c.Kind != expr.KindInt || c.NumNulls() != 2 || !c.Null(1) {
		t.Fatalf("all-null column = %+v", c)
	}
}

// Regression for the stale-index hazard: appending after an index was
// built used to leave it silently out of date — lookups would simply
// miss the new rows. Append now discards every index so reads fail
// loudly (or rebuild correctly).
func TestAppendInvalidatesDerivedStructures(t *testing.T) {
	r := sample()
	r.BuildIndex(1)
	r.BuildIndex(0)

	r.Append(expr.Row{expr.Int(100), expr.Int(0)})

	if r.HasIndex(1) || r.HasIndex(0) {
		t.Error("indexes must be discarded by Append")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Lookup on a discarded index must panic, not miss rows")
			}
		}()
		r.Lookup(1, 0)
	}()

	// Rebuilding after the append sees the new row everywhere.
	r.BuildIndex(1)
	if got := len(r.Lookup(1, 0)); got != 5 {
		t.Errorf("rebuilt index matches = %d, want 5", got)
	}
	if c := r.Col(0); c == nil || c.Ints[10] != 100 {
		t.Errorf("column missing appended row: %+v", c)
	}
}

// Append on a relation with no derived structures stays cheap and legal.
func TestAppendBeforeBuildStillWorks(t *testing.T) {
	r := NewRelation("t", []string{"v"})
	r.Append(expr.Row{expr.Int(1)})
	r.Append(expr.Row{expr.Int(2)})
	if r.NumRows() != 2 {
		t.Fatal("plain appends broken")
	}
}

// classify is the typed-column rule applied to a whole column at once,
// the oracle for the incremental one in Append: the first non-NULL kind
// decides, an all-NULL (or empty) column is KindInt, and a second kind
// leaves no typed column (ok false).
func classify(vals []expr.Value) (kind expr.Kind, nulls int, ok bool) {
	kind = expr.KindNull
	for _, v := range vals {
		switch {
		case v.K == expr.KindNull:
			nulls++
		case kind == expr.KindNull:
			kind = v.K
		case v.K != kind:
			return 0, 0, false
		}
	}
	if kind == expr.KindNull {
		kind = expr.KindInt
	}
	return kind, nulls, true
}

// sameValue is value identity: floats compare by bit pattern, so NaN
// payloads and -0 must survive the column round trip.
func sameValue(a, b expr.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.B == b.B
}

// fuzzValue decodes one value from data: a tag byte whose low two bits
// pick int, float, string or NULL and whose top five bits are a small
// payload, or, with bit 2 set, an eight-byte little-endian payload that
// follows. Small payloads repeat, so dictionaries share codes and
// indexes share keys; strings are "" to "sss".
func fuzzValue(data []byte) (expr.Value, []byte) {
	tag := data[0]
	data = data[1:]
	p := uint64(tag >> 3)
	if tag&4 != 0 && len(data) >= 8 {
		p, data = binary.LittleEndian.Uint64(data), data[8:]
	}
	switch tag & 3 {
	case 0:
		return expr.Int(int64(p)), data
	case 1:
		if tag&4 == 0 {
			return expr.Float(float64(p) / 2), data
		}
		return expr.Float(math.Float64frombits(p)), data
	case 2:
		return expr.Str(strings.Repeat("s", int(p%4))), data
	}
	return expr.Null, data
}

// FuzzAppend appends arbitrary int/float/string/NULL rows to a
// two-column relation and, after every append, checks Value and
// the typed columns against what was appended and against classify,
// and BuildIndex + Lookup on a NULL-free int column against a scan.
func FuzzAppend(f *testing.F) {
	f.Add([]byte{0, 8, 1, 3, 2, 16, 3, 3})
	f.Add([]byte{2, 3, 3, 2})                                  // "" then NULL: the NULL slot keeps code 0
	f.Add(slices.Repeat([]byte{3, 8, 0, 3}, 70))               // NULLs crossing two bitmap words
	f.Add(append(slices.Repeat([]byte{1, 3}, 65), 0, 0))       // floats, then an int
	f.Add(slices.Repeat([]byte{16, 10, 24, 3}, 66))            // ints; strings and NULLs
	f.Add(append(slices.Repeat([]byte{3, 3}, 65), 1, 2, 0, 0)) // NULLs, retyped, then mixed
	f.Add(binary.LittleEndian.AppendUint64([]byte{5}, 0x7ff8000000000001))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRelation("f", []string{"a", "b"})
		var ref [2][]expr.Value
		for n := 0; len(data) > 0 && n < 150; n++ {
			var row expr.Row
			for c := range ref {
				var v expr.Value
				if len(data) > 0 {
					v, data = fuzzValue(data)
				} else {
					v = expr.Null
				}
				row = append(row, v)
				ref[c] = append(ref[c], v)
			}
			r.Append(row)
			row[0] = expr.Str("clobbered") // Append must not alias its argument
			if err := checkColumns(r, ref); err != nil {
				t.Fatalf("after %d rows: %v", n+1, err)
			}
		}
	})
}

// checkColumns compares relation r, whose column c holds ref[c], with
// the reference values.
func checkColumns(r *Relation, ref [2][]expr.Value) error {
	if r.NumRows() != len(ref[0]) {
		return fmt.Errorf("NumRows = %d, want %d", r.NumRows(), len(ref[0]))
	}
	for ord := range r.NumRows() {
		for c := range ref {
			if want := ref[c][ord]; !sameValue(r.Value(ord, c), want) {
				return fmt.Errorf("row %d col %d: Value %v, want %v", ord, c, r.Value(ord, c), want)
			}
		}
	}
	for c := range ref {
		col := r.Col(c)
		kind, nulls, ok := classify(ref[c])
		if (col != nil) != ok {
			return fmt.Errorf("col %d: Col nil = %v, but typed = %v for %v", c, col == nil, ok, ref[c])
		}
		if !ok {
			continue
		}
		if col.Kind != kind || col.NumNulls() != nulls {
			return fmt.Errorf("col %d: kind %v nulls %d, want %v %d", c, col.Kind, col.NumNulls(), kind, nulls)
		}
		for i, v := range ref[c] {
			if col.Null(i) != (v.K == expr.KindNull) {
				return fmt.Errorf("col %d: Null(%d) = %v for %v", c, i, col.Null(i), v)
			}
			if col.Null(i) && (kind == expr.KindInt && col.Ints[i] != 0 ||
				kind == expr.KindFloat && col.Floats[i] != 0 || kind == expr.KindString && col.Codes[i] != 0) {
				return fmt.Errorf("col %d: NULL row %d has a non-zero slot", c, i)
			}
		}
		if err := checkIndex(r, c, kind == expr.KindInt && nulls == 0, ref[c]); err != nil {
			return fmt.Errorf("col %d: %v", c, err)
		}
	}
	return nil
}

// checkIndex builds the index on column c: it must panic unless the
// column is a clean int vector, and Lookup of the last appended key and
// of a key one above it must match a scan.
func checkIndex(r *Relation, c int, clean bool, vals []expr.Value) (err error) {
	defer func() {
		if p := recover(); p != nil && clean {
			err = fmt.Errorf("BuildIndex panicked on a clean int column: %v", p)
		}
	}()
	r.BuildIndex(c)
	if !clean {
		return fmt.Errorf("BuildIndex did not panic")
	}
	ints := make([]int64, len(vals))
	for i, v := range vals {
		ints[i] = v.I
	}
	for _, key := range []int64{ints[len(ints)-1], ints[len(ints)-1] + 1} {
		want := scanOrds(ints, func(v int64) bool { return v == key })
		if got := r.Lookup(c, key); !slices.Equal(got, want) {
			return fmt.Errorf("Lookup(%d) = %v, want %v", key, got, want)
		}
	}
	return nil
}
