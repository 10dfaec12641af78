package datagen

import (
	"math"
	"testing"

	"repro/internal/catalog"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must still produce values")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(2)
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("IntRange(5,8) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("IntRange should cover all 4 values, saw %d", len(seen))
	}
	if r.IntRange(3, 3) != 3 {
		t.Error("degenerate range should return the single value")
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted range should panic")
		}
	}()
	NewRNG(1).IntRange(5, 4)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(4)
	z := NewZipf(r, 100, 1.3)
	counts := make([]int, 100)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be the clear mode, and far above the uniform share.
	if counts[0] < draws/20 {
		t.Errorf("rank-0 count = %d, want heavy head", counts[0])
	}
	if counts[0] <= counts[50] {
		t.Error("zipf head should dominate mid ranks")
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf with n<=0 should panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1.3)
}

func smallCatalog() *catalog.Catalog {
	c := catalog.New("small", 1)
	c.AddTable(&catalog.Table{Name: "dim", BaseRows: 50, Columns: []catalog.Column{
		{Name: "d_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "d_attr", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 5},
	}})
	c.AddTable(&catalog.Table{Name: "fact", BaseRows: 500, Columns: []catalog.Column{
		{Name: "f_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "f_dim", Type: catalog.Int64, Dist: catalog.FKZipf, Ref: "dim"},
		{Name: "f_val", Type: catalog.Int64, Dist: catalog.Zipf, Min: 1, Max: 100},
	}})
	return c
}

func TestPopulateCardinalities(t *testing.T) {
	st, err := Populate(smallCatalog(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.MustRelation("dim").NumRows(); got != 50 {
		t.Errorf("dim rows = %d, want 50", got)
	}
	if got := st.MustRelation("fact").NumRows(); got != 500 {
		t.Errorf("fact rows = %d, want 500", got)
	}
}

func TestPopulateSerialPK(t *testing.T) {
	st, err := Populate(smallCatalog(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dim := st.MustRelation("dim")
	for i := range dim.NumRows() {
		if pk := dim.Value(i, 0).I; pk != int64(i+1) {
			t.Fatalf("PK row %d = %d, want %d", i, pk, i+1)
		}
	}
}

func TestPopulateFKIntegrity(t *testing.T) {
	st, err := Populate(smallCatalog(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	fact := st.MustRelation("fact")
	for ord := range fact.NumRows() {
		if fk := fact.Value(ord, 1).I; fk < 1 || fk > 50 {
			t.Fatalf("FK value %d outside dim key range", fk)
		}
	}
}

func TestPopulateDeterminism(t *testing.T) {
	a, _ := Populate(smallCatalog(), Options{Seed: 9})
	b, _ := Populate(smallCatalog(), Options{Seed: 9})
	ra, rb := a.MustRelation("fact"), b.MustRelation("fact")
	for i := range ra.NumRows() {
		for j := range ra.Cols {
			if ra.Value(i, j) != rb.Value(i, j) {
				t.Fatalf("row %d col %d differs across identical seeds", i, j)
			}
		}
	}
	c, _ := Populate(smallCatalog(), Options{Seed: 10})
	diff := false
	rc := c.MustRelation("fact")
	for i := range ra.NumRows() {
		if ra.Value(i, 1) != rc.Value(i, 1) || ra.Value(i, 2) != rc.Value(i, 2) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should change generated data")
	}
}

func TestPopulateBuildsIndexes(t *testing.T) {
	st, err := Populate(smallCatalog(), Options{Seed: 1, BuildIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	dim := st.MustRelation("dim")
	if !dim.HasIndex(0) {
		t.Error("PK index missing")
	}
	if !dim.HasIndex(1) {
		t.Error("attribute index missing")
	}
	fact := st.MustRelation("fact")
	if !fact.HasIndex(1) {
		t.Error("FK index missing")
	}
}

func TestPopulateUniformRange(t *testing.T) {
	st, _ := Populate(smallCatalog(), Options{Seed: 3})
	dim := st.MustRelation("dim")
	for ord := range dim.NumRows() {
		if v := dim.Value(ord, 1).I; v < 1 || v > 5 {
			t.Fatalf("uniform value %d outside [1,5]", v)
		}
	}
}

func TestPopulateZipfSkewInFK(t *testing.T) {
	st, _ := Populate(smallCatalog(), Options{Seed: 5})
	counts := map[int64]int{}
	fact := st.MustRelation("fact")
	for ord := range fact.NumRows() {
		counts[fact.Value(ord, 1).I]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// 500 draws over 50 keys: uniform share is 10; zipf head must be well above.
	if max < 30 {
		t.Errorf("FKZipf max key count = %d, want skewed head ≥ 30", max)
	}
}

func TestPopulateTPCDS(t *testing.T) {
	cat, err := catalog.TPCDS(0.01)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Populate(cat, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range cat.Tables() {
		rel := st.MustRelation(tab.Name)
		if int64(rel.NumRows()) != tab.Rows(0.01) {
			t.Errorf("%s rows = %d, want %d", tab.Name, rel.NumRows(), tab.Rows(0.01))
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	c := catalog.New("cyc", 1)
	c.AddTable(&catalog.Table{Name: "a", BaseRows: 1, Columns: []catalog.Column{
		{Name: "a_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "a_b", Type: catalog.Int64, Dist: catalog.FKUniform, Ref: "b"},
	}})
	c.AddTable(&catalog.Table{Name: "b", BaseRows: 1, Columns: []catalog.Column{
		{Name: "b_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "b_a", Type: catalog.Int64, Dist: catalog.FKUniform, Ref: "a"},
	}})
	if _, err := Populate(c, Options{}); err == nil {
		t.Fatal("FK cycle should be reported")
	}
}
