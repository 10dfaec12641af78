package datagen

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

// Options configures data generation.
type Options struct {
	// Seed selects the deterministic data set; the same (catalog, seed)
	// pair always yields identical rows.
	Seed uint64
	// BuildIndexes controls whether an index is built after loading on
	// every PK, FK and Uniform/Zipf column (the executor's index
	// operators require them).
	BuildIndexes bool
}

// Populate generates rows for every table in the catalog and loads them
// into a fresh store. Tables are generated in dependency order so that
// FK draws always land on existing keys.
func Populate(cat *catalog.Catalog, opts Options) (*storage.Store, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	store := storage.NewStore()
	order, err := topoOrder(cat)
	if err != nil {
		return nil, err
	}
	for _, t := range order {
		rel, err := generateTable(cat, t, opts)
		if err != nil {
			return nil, err
		}
		store.Add(rel)
	}
	return store, nil
}

// topoOrder sorts tables so referenced tables precede referencing ones.
func topoOrder(cat *catalog.Catalog) ([]*catalog.Table, error) {
	tables := cat.Tables()
	state := make(map[string]int, len(tables)) // 0 new, 1 visiting, 2 done
	var out []*catalog.Table
	var visit func(t *catalog.Table) error
	visit = func(t *catalog.Table) error {
		switch state[t.Name] {
		case 1:
			return fmt.Errorf("datagen: FK cycle involving table %s", t.Name)
		case 2:
			return nil
		}
		state[t.Name] = 1
		for i := range t.Columns {
			ref := t.Columns[i].Ref
			if ref != "" && ref != t.Name {
				if err := visit(cat.MustTable(ref)); err != nil {
					return err
				}
			}
		}
		state[t.Name] = 2
		out = append(out, t)
		return nil
	}
	for _, t := range tables {
		if err := visit(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func generateTable(cat *catalog.Catalog, t *catalog.Table, opts Options) (*storage.Relation, error) {
	n := t.Rows(cat.Scale)
	cols := make([]string, len(t.Columns))
	for i := range t.Columns {
		cols[i] = t.Columns[i].Name
	}
	rel := storage.NewRelation(t.Name, cols)

	// One RNG stream per column keeps columns independent and stable
	// under schema evolution (adding a column doesn't reshuffle others).
	gens := make([]func(rowIdx int64) expr.Value, len(t.Columns))
	for i := range t.Columns {
		col := &t.Columns[i]
		rng := NewRNG(opts.Seed ^ hashString(t.Name) ^ (hashString(col.Name) << 1))
		g, err := columnGenerator(cat, t, col, rng)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}

	// Append copies the values into the relation's column vectors, so
	// one row buffer serves every row.
	row := make(expr.Row, len(t.Columns))
	for r := int64(0); r < n; r++ {
		for i := range gens {
			row[i] = gens[i](r)
		}
		rel.Append(row)
	}

	if opts.BuildIndexes {
		// The PK, every FK and every generated attribute get an index,
		// so the optimizer can consider index-NL joins on keys and index
		// scans for filter predicates.
		for i := range t.Columns {
			c := &t.Columns[i]
			if i == 0 || c.Ref != "" || c.Dist == catalog.Uniform || c.Dist == catalog.Zipf {
				rel.BuildIndex(i)
			}
		}
	}
	return rel, nil
}

func columnGenerator(cat *catalog.Catalog, t *catalog.Table, col *catalog.Column, rng *RNG) (func(int64) expr.Value, error) {
	switch col.Dist {
	case catalog.Serial:
		return func(r int64) expr.Value { return expr.Int(r + 1) }, nil
	case catalog.Uniform:
		lo, hi := col.Min, col.Max
		return func(int64) expr.Value { return expr.Int(rng.IntRange(lo, hi)) }, nil
	case catalog.Zipf:
		span := col.Max - col.Min + 1
		z := NewZipf(rng, span, col.ZipfS)
		// Scatter ranks across the range so the hottest value isn't
		// always Min; the permutation is a fixed affine map.
		lo := col.Min
		return func(int64) expr.Value {
			rank := z.Next()
			v := lo + (rank*2654435761)%span
			return expr.Int(v)
		}, nil
	case catalog.FKUniform:
		refRows := cat.Rows(col.Ref)
		return func(int64) expr.Value { return expr.Int(rng.IntRange(1, refRows)) }, nil
	case catalog.FKZipf:
		refRows := cat.Rows(col.Ref)
		z := NewZipf(rng, refRows, col.ZipfS)
		return func(int64) expr.Value {
			rank := z.Next()
			return expr.Int(1 + (rank*2654435761)%refRows)
		}, nil
	default:
		return nil, fmt.Errorf("datagen: %s.%s has unknown distribution %d", t.Name, col.Name, col.Dist)
	}
}

// hashString is FNV-1a, inlined to keep datagen free of hash/fnv's
// interface overhead in per-column seeding.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
