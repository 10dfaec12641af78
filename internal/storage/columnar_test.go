package storage

import (
	"testing"

	"repro/internal/expr"
)

func TestBuildColumnsTypedVectors(t *testing.T) {
	r := NewRelation("t", []string{"i", "f", "s"})
	r.Append(expr.Row{expr.Int(7), expr.Float(1.5), expr.Str("a")})
	r.Append(expr.Row{expr.Int(-3), expr.Float(2.5), expr.Str("b")})
	r.Append(expr.Row{expr.Int(9), expr.Float(0), expr.Str("a")})
	if r.HasColumns() || r.Col(0) != nil {
		t.Fatal("columns must not exist before BuildColumns")
	}
	r.BuildColumns()
	if !r.HasColumns() {
		t.Fatal("HasColumns after build")
	}

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
	r.BuildColumns()
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
	r.BuildColumns()
	if r.Col(0) != nil {
		t.Error("mixed-kind column must have no columnar projection")
	}
	if c := r.Col(1); c == nil || c.Ints[1] != 20 {
		t.Errorf("clean sibling column must still be columnar: %+v", c)
	}
}

func TestBuildColumnsAllNull(t *testing.T) {
	r := NewRelation("t", []string{"v"})
	r.Append(expr.Row{expr.Null})
	r.Append(expr.Row{expr.Null})
	r.BuildColumns()
	c := r.Col(0)
	if c == nil || c.Kind != expr.KindInt || c.NumNulls() != 2 || !c.Null(1) {
		t.Fatalf("all-null column = %+v", c)
	}
}

// Regression for the stale-derived-structure hazard: appending after
// indexes or column vectors were built used to leave them silently out
// of date — lookups would simply miss the new rows. Append now discards
// every derived structure so reads fail loudly (or rebuild correctly).
func TestAppendInvalidatesDerivedStructures(t *testing.T) {
	r := sample()
	r.BuildIndex(1)
	r.BuildIndex(0)
	r.BuildColumns()

	r.Append(expr.Row{expr.Int(100), expr.Int(0)})

	if r.HasIndex(1) || r.HasIndex(0) {
		t.Error("indexes must be discarded by Append")
	}
	if r.HasColumns() || r.Col(0) != nil {
		t.Error("column vectors must be discarded by Append")
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
	r.BuildColumns()
	if got := len(r.Lookup(1, 0)); got != 5 {
		t.Errorf("rebuilt index matches = %d, want 5", got)
	}
	if c := r.Col(0); c == nil || c.Ints[10] != 100 {
		t.Errorf("rebuilt column missing appended row: %+v", c)
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
