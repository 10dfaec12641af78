package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

func sample() *Relation {
	r := NewRelation("t", []string{"id", "v"})
	for i := int64(0); i < 10; i++ {
		r.Append(expr.Row{expr.Int(i), expr.Int(i % 3)})
	}
	return r
}

func TestAppendAndNumRows(t *testing.T) {
	r := sample()
	if r.NumRows() != 10 {
		t.Fatalf("NumRows = %d, want 10", r.NumRows())
	}
}

func TestAppendWidthMismatchPanics(t *testing.T) {
	r := NewRelation("t", []string{"a", "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("short row should panic")
		}
	}()
	r.Append(expr.Row{expr.Int(1)})
}

func TestColumnIndex(t *testing.T) {
	r := sample()
	if r.ColumnIndex("v") != 1 || r.ColumnIndex("id") != 0 || r.ColumnIndex("zzz") != -1 {
		t.Fatal("ColumnIndex broken")
	}
}

// TestColumnIndexZeroValueFallback pins the linear-scan fallback for
// relations built without NewRelation (no cached name→ordinal map).
func TestColumnIndexZeroValueFallback(t *testing.T) {
	r := &Relation{Name: "z", Cols: []string{"a", "b", "c"}}
	if r.ColumnIndex("c") != 2 || r.ColumnIndex("a") != 0 || r.ColumnIndex("nope") != -1 {
		t.Fatal("zero-value ColumnIndex fallback broken")
	}
}

func TestHashIndex(t *testing.T) {
	r := sample()
	r.BuildIndex(1)
	if !r.HasIndex(1) || r.HasIndex(0) {
		t.Fatal("HasIndex broken")
	}
	// v = i%3, so key 0 matches ids 0,3,6,9, in that order.
	if got := r.Lookup(1, 0); !slices.Equal(got, []int32{0, 3, 6, 9}) {
		t.Fatalf("Lookup(0) = %v, want [0 3 6 9]", got)
	}
	if r.Lookup(1, 99) != nil || r.Lookup(1, -1) != nil {
		t.Error("missing key should return nil")
	}
}

func TestHashLookupWithoutIndexPanics(t *testing.T) {
	r := sample()
	defer func() {
		if recover() == nil {
			t.Fatal("lookup without index should panic")
		}
	}()
	r.Lookup(0, 1)
}

func TestHashIndexOnNonIntPanics(t *testing.T) {
	r := NewRelation("t", []string{"s"})
	r.Append(expr.Row{expr.Str("x")})
	defer func() {
		if recover() == nil {
			t.Fatal("index on string column should panic")
		}
	}()
	r.BuildIndex(0)
}

func TestSortedIndexRange(t *testing.T) {
	r := NewRelation("t", []string{"v"})
	for _, v := range []int64{5, 1, 9, 3, 7} {
		r.Append(expr.Row{expr.Int(v)})
	}
	r.BuildIndex(0)
	if !r.HasIndex(0) || r.HasIndex(1) {
		t.Fatal("HasIndex broken")
	}
	// Values 3, 5, 7 sit at ordinals 3, 0, 4.
	if got := r.RangeLookup(0, 3, 7); !slices.Equal(got, []int32{3, 0, 4}) {
		t.Fatalf("range [3,7] = %v, want [3 0 4]", got)
	}
	if got := r.RangeLookup(0, math.MinInt64, math.MaxInt64); len(got) != 5 {
		t.Errorf("unbounded range = %d rows, want 5", len(got))
	}
	if r.RangeLookup(0, 100, math.MaxInt64) != nil || r.RangeLookup(0, 7, 3) != nil {
		t.Error("empty range should be nil")
	}
}

func TestRangeLookupWithoutIndexPanics(t *testing.T) {
	r := sample()
	defer func() {
		if recover() == nil {
			t.Fatal("range lookup without index should panic")
		}
	}()
	r.RangeLookup(0, 0, 1)
}

func TestStore(t *testing.T) {
	s := NewStore()
	s.Add(sample())
	if s.Relation("t") == nil || s.Relation("x") != nil {
		t.Fatal("Relation lookup broken")
	}
	if s.MustRelation("t").Name != "t" {
		t.Fatal("MustRelation broken")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("Names = %v", names)
	}
}

func TestMustRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRelation on missing relation should panic")
		}
	}()
	NewStore().MustRelation("missing")
}

// indexed builds a one-column relation over vals with its index.
func indexed(vals []int64) *Relation {
	r := NewRelation("p", []string{"v"})
	for _, v := range vals {
		r.Append(expr.Row{expr.Int(v)})
	}
	r.BuildIndex(0)
	return r
}

// scanOrds is the ordinals of vals that match, in ascending order.
func scanOrds(vals []int64, match func(int64) bool) []int32 {
	var out []int32
	for i, v := range vals {
		if match(v) {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkLookup compares Lookup of each key with a scan: it must return
// the ordinals holding the key in ascending order (the order index-NL
// joins emit in).
func checkLookup(r *Relation, vals, keys []int64) error {
	for _, key := range keys {
		want := scanOrds(vals, func(v int64) bool { return v == key })
		if got := r.Lookup(0, key); !slices.Equal(got, want) {
			return fmt.Errorf("vals %v: Lookup(%d) = %v, want %v", vals, key, got, want)
		}
	}
	return nil
}

// checkRange compares RangeLookup(lo, hi) with a scan: it must return
// the ordinals in [lo, hi] ordered by (value, ordinal).
func checkRange(r *Relation, vals []int64, lo, hi int64) error {
	want := scanOrds(vals, func(v int64) bool { return lo <= v && v <= hi })
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
	if got := r.RangeLookup(0, lo, hi); !slices.Equal(got, want) {
		return fmt.Errorf("vals %v: RangeLookup(%d, %d) = %v, want %v", vals, lo, hi, got, want)
	}
	return nil
}

// probeKeys is every value, its neighbours and key: hits on the dense
// position guess, hits by binary search, and misses on either side.
func probeKeys(vals []int64, key int64) []int64 {
	keys := []int64{key}
	for _, v := range vals {
		keys = append(keys, v, v-1, v+1)
	}
	return keys
}

// edge maps a quick-generated value onto a small domain (forcing
// duplicate keys), the int64 extremes, or itself.
func edge(x int64) int64 {
	switch x & 7 {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return x
	}
	return x % 16
}

// edgeVals truncates quick's values to 200 and maps each through edge.
func edgeVals(vals []int64) []int64 {
	if len(vals) > 200 {
		vals = vals[:200]
	}
	for i := range vals {
		vals[i] = edge(vals[i])
	}
	return vals
}

// Property: Lookup (the point access the former hash index served)
// returns exactly the rows a full scan finds, in ascending ordinal
// order, including at the int64 edges.
func TestHashIndexMatchesScanProperty(t *testing.T) {
	f := func(vals []int64, key int64) bool {
		vals = edgeVals(vals)
		if err := checkLookup(indexed(vals), vals, probeKeys(vals, edge(key))); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RangeLookup (the range access the former sorted permutation
// served) returns exactly the rows a full scan finds, ordered by
// (value, ordinal), including at the int64 edges.
func TestSortedIndexMatchesScanProperty(t *testing.T) {
	f := func(vals []int64, lo, hi int64) bool {
		vals = edgeVals(vals)
		if err := checkRange(indexed(vals), vals, edge(lo), edge(hi)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzIndex checks the index against a scan over arbitrary int64 values
// (eight little-endian bytes each) and bounds.
func FuzzIndex(f *testing.F) {
	le := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(le(3, 1, 3, 2), int64(3), int64(1), int64(2))
	f.Add(le(math.MaxInt64, math.MinInt64, 0, math.MaxInt64), int64(math.MinInt64), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(le(-1, 0, 1), int64(0), int64(1), int64(-1))
	// Spans below 4n, which the counting sort groups.
	f.Add(le(5, 3, 5, 4, 3, 7, 9, 3), int64(5), int64(4), int64(7))
	f.Add(le(math.MinInt64+2, math.MinInt64, math.MinInt64+2, math.MinInt64+1), int64(math.MinInt64), int64(math.MinInt64), int64(math.MinInt64+1))
	f.Add(le(math.MaxInt64, math.MaxInt64-3, math.MaxInt64-1, math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64-1), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, data []byte, key, lo, hi int64) {
		var vals []int64
		for ; len(data) >= 8 && len(vals) < 256; data = data[8:] {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data)))
		}
		if err := checkArms(vals); err != nil {
			t.Fatal(err)
		}
		r := indexed(vals)
		if err := checkLookup(r, vals, probeKeys(vals, key)); err != nil {
			t.Fatal(err)
		}
		if err := checkRange(r, vals, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
}

// checkArms groups vals by the counting sort and by the comparison sort
// and requires identical arrays, and requires group to agree with both.
// The counting sort runs whenever its count array stays small, also
// above the span group would count, so both arms meet on more inputs.
func checkArms(vals []int64) error {
	sorted := sortGroup(vals)
	arms := []*index{group(vals)}
	if len(vals) > 0 {
		lo, hi := slices.Min(vals), slices.Max(vals)
		if span := uint64(hi) - uint64(lo); span < max(denseFactor*uint64(len(vals)), 1<<12) {
			arms = append(arms, countGroup(vals, lo, span+1))
		}
	}
	for _, x := range arms {
		if !slices.Equal(x.keys, sorted.keys) || !slices.Equal(x.offs, sorted.offs) || !slices.Equal(x.ords, sorted.ords) {
			return fmt.Errorf("vals %v: grouped %v %v %v, sorted %v %v %v",
				vals, x.keys, x.offs, x.ords, sorted.keys, sorted.offs, sorted.ords)
		}
	}
	return nil
}

// Property: at key spans 4n−1 (the widest the counting sort takes), 4n
// and 4n+1 (the narrowest it leaves to the comparison sort), both arms
// give identical arrays and the index matches a scan.
func TestIndexArmsAgreeAtDenseBoundProperty(t *testing.T) {
	f := func(lo int64, draws []uint32, n uint8) bool {
		size := int(n)%100 + 2
		for _, extra := range []int64{-1, 0, 1} {
			span := denseFactor*int64(size) + extra
			base := min(lo, math.MaxInt64-span)
			vals := []int64{base + span, base}
			for i := 2; i < size; i++ {
				var d int64
				if len(draws) > 0 {
					d = int64(draws[i%len(draws)]) % (span + 1)
				}
				vals = append(vals, base+d)
			}
			if err := checkArms(vals); err != nil {
				t.Log(err)
				return false
			}
			if err := checkLookup(indexed(vals), vals, probeKeys(vals, base)); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Dense windows ending at MinInt64 and at MaxInt64 take the counting
// arm (span 5 < 4·6) without overflowing, and agree with the
// comparison sort and a scan.
func TestIndexArmsAgreeAtInt64Edges(t *testing.T) {
	for _, vals := range [][]int64{
		{math.MinInt64 + 5, math.MinInt64, math.MinInt64 + 2, math.MinInt64, math.MinInt64 + 5, math.MinInt64 + 1},
		{math.MaxInt64 - 5, math.MaxInt64, math.MaxInt64 - 2, math.MaxInt64, math.MaxInt64 - 5, math.MaxInt64 - 1},
	} {
		if err := checkArms(vals); err != nil {
			t.Error(err)
		}
		r := indexed(vals)
		if err := checkLookup(r, vals, probeKeys(vals, vals[0])); err != nil {
			t.Error(err)
		}
		if err := checkRange(r, vals, math.MinInt64, math.MaxInt64); err != nil {
			t.Error(err)
		}
	}
}
