package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// msoFixture holds one small real-execution setup (the EQ query over
// generated data) shared by the engine-differential tests below.
type msoFixture struct {
	q        *query.Query
	store    *storage.Store
	space    *ess.Space
	compiled *core.Compiled
}

func buildMSOFixture(t *testing.T) *msoFixture {
	t.Helper()
	spec, err := workload.ByName("EQ")
	if err != nil {
		t.Fatal(err)
	}
	q, err := spec.Load(0.2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := datagen.Populate(q.Cat, datagen.Options{Seed: 2016, BuildIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.FromData(q.Cat, store, 24)
	if err != nil {
		t.Fatal(err)
	}
	space, err := ess.Build(q, optimizer.BuildEnv(q, st), cost.NewModel(cost.DefaultParams()), ess.Config{Res: 5})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &msoFixture{q: q, store: store, space: space, compiled: compiled}
}

// discoverReal runs one discovery over real executions with a fresh
// executor, optionally with armed faults.
func (f *msoFixture) discoverReal(t *testing.T, alg core.Algorithm,
	mkFaults func() *faultinject.Injector) (*discovery.Outcome, error) {
	t.Helper()
	ex := exec.New(f.q, f.store, cost.DefaultParams())
	if mkFaults != nil {
		ex.WithFaults(mkFaults())
	}
	return f.compiled.NewRun().DiscoverWith(alg,
		discovery.NewResilient(discovery.NewRealEngine(f.space, ex), discovery.DefaultRetryPolicy))
}

// TestDifferentialDiscoveryClean proves that a full discovery over real
// executions reproduces the golden outcome exactly — every step's cost,
// every learned selectivity index, and the total — for all three
// algorithms, with no faults armed. This is the MSO-level closure of the
// per-run differential suite in internal/exec: the discovery state
// machine only observes (Cost, Completed, JoinSel), all of which that
// suite pins bit for bit.
func TestDifferentialDiscoveryClean(t *testing.T) {
	f := buildMSOFixture(t)
	g := loadOutcomeGolden(t)
	for _, alg := range []core.Algorithm{core.PlanBouquet, core.SpillBound, core.AlignedBound} {
		out, err := f.discoverReal(t, alg, nil)
		g.check(t, string(alg), out, err)
		if err == nil && len(out.Degradations) != 0 {
			t.Errorf("%s: clean run took degradations: %+v", alg, out.Degradations)
		}
	}
}

// TestDifferentialDiscoveryChaos replays full discoveries under
// deterministic fault schedules (kills, dropped observations, panics,
// latency). Armed faults force the executor into lockstep mode, so the
// injector's site/sequence stream — and therefore every retry,
// degradation, and wasted-cost entry the resilient driver records, or
// the error it ends with — must match the golden exactly.
func TestDifferentialDiscoveryChaos(t *testing.T) {
	f := buildMSOFixture(t)
	rates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple:     0.02,
		faultinject.SiteIndexProbe:    0.05,
		faultinject.SiteOperatorPanic: 0.01,
		faultinject.SiteSpillObs:      0.20,
		faultinject.SiteLatency:       0.05,
	}
	g := loadOutcomeGolden(t)
	for seed := uint64(1); seed <= 4; seed++ {
		for _, pf := range []float64{0, 1} {
			mk := func() *faultinject.Injector {
				return faultinject.New(faultinject.Config{
					Seed: seed, Rates: rates, PersistentFrac: pf, MaxPerSite: 2,
				})
			}
			for _, alg := range []core.Algorithm{core.SpillBound, core.AlignedBound} {
				out, err := f.discoverReal(t, alg, mk)
				g.check(t, fmt.Sprintf("%s/seed=%d/pf=%g", alg, seed, pf), out, err)
			}
		}
	}
}

// realSetup is one spec compiled over a shared store.
type realSetup struct {
	q        *query.Query
	space    *ess.Space
	compiled *core.Compiled
}

// realDataSeed generates the rows of buildRealSetups' store. With the
// benchmark's seed (2016) the true selectivities of 3D_Q96 or 5D_Q19 lie
// past the grid at scales 0.05–0.1 and discovery ends with dimensions
// unlearned; at seed 7 every query_real spec is learnable at 0.1.
const realDataSeed = 7

// buildRealSetups populates one TPC-DS store at the scale and compiles
// each named spec over statistics from that data.
func buildRealSetups(tb testing.TB, scale float64, names ...string) (*storage.Store, []realSetup) {
	tb.Helper()
	eq, err := workload.ByName("EQ")
	if err != nil {
		tb.Fatal(err)
	}
	q0, err := eq.Load(scale)
	if err != nil {
		tb.Fatal(err)
	}
	store, err := datagen.Populate(q0.Cat, datagen.Options{Seed: realDataSeed, BuildIndexes: true})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := stats.FromData(q0.Cat, store, 24)
	if err != nil {
		tb.Fatal(err)
	}
	model := cost.NewModel(cost.DefaultParams())
	var out []realSetup
	for _, name := range names {
		spec, err := workload.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		q, err := spec.Load(scale)
		if err != nil {
			tb.Fatal(err)
		}
		space, err := ess.Build(q, optimizer.BuildEnv(q, st), model, ess.Config{Res: spec.Res})
		if err != nil {
			tb.Fatal(err)
		}
		compiled, err := core.Compile(space, core.CompileOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, realSetup{q: q, space: space, compiled: compiled})
	}
	return store, out
}

// discover runs one real-execution discovery on the given executor.
func (s realSetup) discover(alg core.Algorithm, ex *exec.Executor) (*discovery.Outcome, error) {
	return s.compiled.NewRun().DiscoverWith(alg,
		discovery.NewResilient(discovery.NewRealEngine(s.space, ex), discovery.DefaultRetryPolicy))
}

// TestDifferentialDiscoveryRealSpecs closes the differential over every
// query_real spec: full discoveries at one and four workers reproduce
// the golden outcome exactly. Each worker count reuses one executor for
// all of a spec's discoveries, so pooled build tables, row slabs and the
// index-NL inner-count memo carry over between plans of different
// shapes and output widths.
func TestDifferentialDiscoveryRealSpecs(t *testing.T) {
	// The query_real specs, from the 3-relation EQ to the 5- and
	// 6-relation pipelines whose join outputs are pruned hardest.
	names := []string{"EQ", "3D_Q15", "3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91", "5D_Q19"}
	store, setups := buildRealSetups(t, 0.1, names...)
	g := loadOutcomeGolden(t)
	for i, s := range setups {
		algs := []core.Algorithm{core.SpillBound, core.AlignedBound}
		if names[i] == "EQ" || names[i] == "3D_Q96" {
			algs = append(algs, core.PlanBouquet)
		}
		execs := map[int]*exec.Executor{
			1: exec.New(s.q, store, cost.DefaultParams()),
			4: exec.New(s.q, store, cost.DefaultParams()).WithWorkers(4),
		}
		for _, alg := range algs {
			for _, w := range []int{1, 4} {
				got, err := s.discover(alg, execs[w])
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", names[i], alg, w, err)
				}
				g.check(t, names[i]+"/"+string(alg), got, nil)
			}
		}
	}
}

// TestDifferentialDiscoveryRealLazy runs real executions over a lazy
// contour source. For every query_real spec, SpillBound, AlignedBound
// and PlanBouquet driven by the row-level engine over an exact-mode
// LazySpace reproduce the outcome over the exact-mode eager Space, on
// the same executor: plans by signature, everything else bit for bit.
func TestDifferentialDiscoveryRealLazy(t *testing.T) {
	names := []string{"EQ", "3D_Q15", "3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91", "5D_Q19"}
	store, setups := buildRealSetups(t, 0.1, names...)
	model := cost.NewModel(cost.DefaultParams())
	for i, s := range setups {
		spec, err := workload.ByName(names[i])
		if err != nil {
			t.Fatal(err)
		}
		cfg := ess.Config{Res: spec.Res, Theta: ess.ThetaExact}
		space, err := ess.Build(s.q, s.space.BaseEnv, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := ess.BuildLazy(s.q, s.space.BaseEnv, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var p lazyPair
		if p.eager, err = core.Compile(space, core.CompileOptions{}); err != nil {
			t.Fatal(err)
		}
		if p.lazy, err = core.CompileSource(ls, core.CompileOptions{}); err != nil {
			t.Fatal(err)
		}
		ex := exec.New(s.q, store, cost.DefaultParams())
		discover := func(c *core.Compiled, alg core.Algorithm) *discovery.Outcome {
			out, err := c.NewRun().DiscoverWith(alg,
				discovery.NewResilient(discovery.NewRealEngine(c.Source, ex), discovery.DefaultRetryPolicy))
			if err != nil {
				t.Fatalf("%s %s: %v", names[i], alg, err)
			}
			return out
		}
		for _, alg := range []core.Algorithm{core.SpillBound, core.AlignedBound, core.PlanBouquet} {
			p.compareLazyOutcomes(t, names[i]+"/"+string(alg), discover(p.eager, alg), discover(p.lazy, alg))
		}
	}
}
