package optimizer_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// comparePerClass requires got to equal the oracle's map: identical
// class keys, bitwise-equal cost and cardinality, equal plan signature.
func comparePerClass(t *testing.T, where string, got, want map[int]*optimizer.Plan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d classes, oracle has %d", where, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: class %d missing", where, id)
		}
		if g.Cost != w.Cost || g.Rows != w.Rows {
			t.Fatalf("%s: class %d (cost, rows) = (%v, %v), oracle (%v, %v)", where, id, g.Cost, g.Rows, w.Cost, w.Rows)
		}
		if gs, ws := g.Root.Signature(), w.Root.Signature(); gs != ws {
			t.Fatalf("%s: class %d plan\n  runner: %s\n  oracle: %s", where, id, gs, ws)
		}
		if err := g.Root.Validate(); err != nil {
			t.Fatalf("%s: class %d plan invalid: %v", where, id, err)
		}
	}
}

// TestRunnerBestPerSpillClassMatchesSearch drives the runner's per-class
// search against the naive oracle over every workload spec, a spread of
// grid points, and every non-empty remaining-mask. One runner serves a
// whole spec, and every mask is searched twice in a row at the last
// point, so arena reuse across calls of different strides, and the
// signature tie-break on recycled (zeroed) candidate slots, are covered.
func TestRunnerBestPerSpillClassMatchesSearch(t *testing.T) {
	// Per-dimension selectivities of the probed points: the two corners
	// and interior points that move the dimensions against each other.
	spread := [][]float64{
		{1e-5, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5},
		{1, 1, 1, 1, 1, 1},
		{1e-3, 0.05, 1e-4, 0.4, 1e-2, 1e-5},
		{0.3, 1e-4, 0.02, 1e-5, 1, 1e-3},
	}
	// Plus seeded draws from the log-spaced grid the ESS itself uses.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 8; i++ {
		sel := make([]float64, 6)
		for d := range sel {
			sel[d] = math.Pow(10, -5*rng.Float64())
		}
		spread = append(spread, sel)
	}
	if testing.Short() {
		spread = spread[2:5]
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			q, err := spec.Load(1.0)
			if err != nil {
				t.Fatal(err)
			}
			model := cost.NewModel(cost.DefaultParams())
			env := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat))
			o := optimizer.New(q, model)
			r := o.NewRunner()
			D := q.D()
			for pi, sel := range spread {
				optimizer.SetEPPSel(env, q, sel[:D])
				for mask := 1; mask < 1<<uint(D); mask++ {
					remaining := map[int]bool{}
					for d, joinID := range q.EPPs {
						if mask&(1<<uint(d)) != 0 {
							remaining[joinID] = true
						}
					}
					want := o.OracleBestPerSpillClass(env, remaining)
					comparePerClass(t, name, r.BestPerSpillClass(env, remaining), want)
					if pi == len(spread)-1 {
						comparePerClass(t, name+" (repeat)", r.BestPerSpillClass(env, remaining), want)
						comparePerClass(t, name+" (pooled)", o.BestPerSpillClass(env, remaining), want)
					}
				}
				// Best between per-class calls: stride 1 on the same arenas.
				wb, gb := o.OracleBest(env), r.Best(env)
				if gb.Cost != wb.Cost || gb.Rows != wb.Rows || gb.Root.Signature() != wb.Root.Signature() {
					t.Fatalf("%s: Best after per-class calls: (%v, %s), oracle (%v, %s)",
						name, gb.Cost, gb.Root.Signature(), wb.Cost, wb.Root.Signature())
				}
			}
		})
	}
}

// TestPerClassPlansOutliveArena checks the per-class winners are deep
// copies: recycling the runner's arenas must not corrupt earlier plans.
func TestPerClassPlansOutliveArena(t *testing.T) {
	spec, err := workload.ByName("3D_Q91")
	if err != nil {
		t.Fatal(err)
	}
	q, err := spec.Load(1.0)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat))
	r := optimizer.New(q, cost.NewModel(cost.DefaultParams())).NewRunner()
	remaining := map[int]bool{}
	for _, joinID := range q.EPPs {
		remaining[joinID] = true
	}
	optimizer.SetEPPSel(env, q, []float64{1e-5, 1e-5, 1e-5})
	first := r.BestPerSpillClass(env, remaining)
	sigs := map[int]string{}
	for id, p := range first {
		sigs[id] = p.Root.Signature()
	}
	optimizer.SetEPPSel(env, q, []float64{1, 1, 1})
	for i := 0; i < 5; i++ {
		r.BestPerSpillClass(env, remaining)
		r.Best(env)
	}
	for id, p := range first {
		if got := p.Root.Signature(); got != sigs[id] {
			t.Fatalf("class %d plan mutated by later searches: %s -> %s", id, sigs[id], got)
		}
		if err := p.Root.Validate(); err != nil {
			t.Fatalf("class %d plan corrupted: %v", id, err)
		}
	}
}
