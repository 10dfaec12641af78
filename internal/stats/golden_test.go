package stats

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// goldenCatalogs are the schemas whose FromData output is kept under
// testdata: the TPC-DS catalog (the one EQ and the Table 3 queries
// load) and the IMDB catalog (JOB's), both at scale 0.05.
var goldenCatalogs = []struct {
	name string
	load func(float64) (*catalog.Catalog, error)
}{
	{"tpcds", catalog.TPCDS},
	{"imdb", catalog.IMDB},
}

const (
	goldenScale   = 0.05
	goldenSeed    = 2016
	goldenBuckets = 24
)

// goldenStats is FromData over the catalog's rows, with or without the
// indexes Populate builds.
func goldenStats(t *testing.T, load func(float64) (*catalog.Catalog, error), indexes bool) map[string]*TableStats {
	t.Helper()
	cat, err := load(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	st, err := datagen.Populate(cat, datagen.Options{Seed: goldenSeed, BuildIndexes: indexes})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromData(cat, st, goldenBuckets)
	if err != nil {
		t.Fatal(err)
	}
	return s.tables
}

// TestFromDataGolden compares FromData with its output recorded in
// testdata/fromdata_<schema>.json, over stores built with and without
// indexes, and names the first table and column that differ.
func TestFromDataGolden(t *testing.T) {
	for _, g := range goldenCatalogs {
		raw, err := os.ReadFile(filepath.Join("testdata", "fromdata_"+g.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]*TableStats
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		for _, indexes := range []bool{true, false} {
			got := goldenStats(t, g.load, indexes)
			if table, col := firstStatsDiff(want, got); table != "" {
				t.Errorf("%s (indexes %v): FromData differs from the golden at table %s column %q", g.name, indexes, table, col)
			}
		}
	}
}

// firstStatsDiff returns the first table, in name order, whose
// statistics differ between a and b, and the first differing column
// ("" when the row count or the column set differs); table is "" when
// a and b are equal.
func firstStatsDiff(a, b map[string]*TableStats) (table, col string) {
	names := make([]string, 0, len(a)+len(b))
	for n := range a {
		names = append(names, n)
	}
	for n := range b {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range slices.Compact(names) {
		ta, tb := a[n], b[n]
		if ta == nil || tb == nil {
			return n, ""
		}
		cols := make([]string, 0, len(ta.Cols))
		for c := range ta.Cols {
			cols = append(cols, c)
		}
		slices.Sort(cols)
		for _, c := range cols {
			if !reflect.DeepEqual(ta.Cols[c], tb.Cols[c]) {
				return n, c
			}
		}
		if ta.Rows != tb.Rows || len(ta.Cols) != len(tb.Cols) {
			return n, ""
		}
	}
	return "", ""
}
