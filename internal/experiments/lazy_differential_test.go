package experiments

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// lazyPair holds the same workload compiled twice: once over the eager
// full-sweep Space and once over the demand-driven LazySpace, both in
// exact mode so the surfaces are bit-for-bit identical by contract.
type lazyPair struct {
	eager, lazy *core.Compiled
	points      int
}

func buildLazyPair(t *testing.T, res int) *lazyPair {
	t.Helper()
	spec, err := workload.ByName("EQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ess.Config{Res: res, Exact: true}
	space, err := spec.SpaceWith(0.2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := spec.LazySpaceWith(0.2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.CompileSource(ls, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &lazyPair{eager: ce, lazy: cl, points: space.Grid.NumPoints()}
}

func (p *lazyPair) discover(c *core.Compiled, alg core.Algorithm, qa int32,
	mkFaults func() *faultinject.Injector) (*discovery.Outcome, error) {
	r := c.NewRun()
	if mkFaults != nil {
		r.WithFaults(mkFaults())
	}
	return r.Discover(alg, qa)
}

// compareLazyOutcomes asserts an eager and a lazy outcome are
// equivalent. Pool IDs are assigned in settle order, which necessarily
// differs between a full sweep and demand-driven discovery, so plans
// are compared by structural signature through their respective pools;
// everything else must be bit-for-bit identical.
func (p *lazyPair) compareLazyOutcomes(t *testing.T, name string, eo, lo *discovery.Outcome) {
	t.Helper()
	if len(eo.Steps) != len(lo.Steps) {
		t.Errorf("%s: %d eager steps vs %d lazy", name, len(eo.Steps), len(lo.Steps))
		return
	}
	es := append([]discovery.Step(nil), eo.Steps...)
	ls := append([]discovery.Step(nil), lo.Steps...)
	for i := range es {
		esig := p.eager.Source.Plan(es[i].PlanID).Sig
		lsig := p.lazy.Source.Plan(ls[i].PlanID).Sig
		if esig != lsig {
			t.Errorf("%s: step %d plan %s (eager) vs %s (lazy)", name, i, esig, lsig)
		}
		es[i].PlanID, ls[i].PlanID = 0, 0
	}
	en, ln := *eo, *lo
	en.Steps, ln.Steps = es, ls
	compareOutcomes(t, name, &en, &ln)
}

// TestDifferentialLazyESS proves the inversion is observationally
// invisible: for every algorithm, across a spread of query locations
// (each climbing a different prefix of the budget ladder) and across
// deterministic chaos schedules, a discovery over the demand-driven
// source reproduces the eager full-sweep outcome bit for bit — every
// step's budget, cost, learned index, retry, and degradation.
func TestDifferentialLazyESS(t *testing.T) {
	p := buildLazyPair(t, 5)
	rates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple:     0.02,
		faultinject.SiteIndexProbe:    0.05,
		faultinject.SiteOperatorPanic: 0.01,
		faultinject.SiteSpillObs:      0.20,
		faultinject.SiteLatency:       0.05,
	}
	schedules := map[string]func() *faultinject.Injector{"clean": nil}
	for seed := uint64(1); seed <= 3; seed++ {
		s := seed
		schedules[string(rune('0'+s))+"-chaos"] = func() *faultinject.Injector {
			return faultinject.New(faultinject.Config{Seed: s, Rates: rates, MaxPerSite: 2})
		}
	}
	qas := []int32{0, int32(p.points / 3), int32(p.points / 2), int32(p.points - 1)}
	for _, alg := range []core.Algorithm{core.PlanBouquet, core.SpillBound, core.AlignedBound} {
		for name, mk := range schedules {
			for _, qa := range qas {
				eo, errE := p.discover(p.eager, alg, qa, mk)
				lo, errL := p.discover(p.lazy, alg, qa, mk)
				if (errE == nil) != (errL == nil) ||
					(errE != nil && errL != nil && errE.Error() != errL.Error()) {
					t.Fatalf("%s/%s qa=%d: errors diverge: eager %v, lazy %v",
						alg, name, qa, errE, errL)
				}
				if errE != nil {
					continue
				}
				p.compareLazyOutcomes(t, string(alg)+"/"+name, eo, lo)
			}
		}
	}
}

// TestDifferentialLazyESSConcurrent drives every grid location through
// the shared lazy artifact concurrently — first-touch settling, contour
// memoization, and plan-pool interning all race here under -race — and
// checks each outcome against the eager baseline.
func TestDifferentialLazyESSConcurrent(t *testing.T) {
	p := buildLazyPair(t, 5)
	const alg = core.SpillBound
	baseline := make([]*discovery.Outcome, p.points)
	for qa := range baseline {
		out, err := p.discover(p.eager, alg, int32(qa), nil)
		if err != nil {
			t.Fatal(err)
		}
		baseline[qa] = out
	}
	var wg sync.WaitGroup
	errs := make([]error, p.points)
	outs := make([]*discovery.Outcome, p.points)
	for qa := 0; qa < p.points; qa++ {
		wg.Add(1)
		go func(qa int) {
			defer wg.Done()
			outs[qa], errs[qa] = p.discover(p.lazy, alg, int32(qa), nil)
		}(qa)
	}
	wg.Wait()
	for qa := 0; qa < p.points; qa++ {
		if errs[qa] != nil {
			t.Fatalf("qa=%d: %v", qa, errs[qa])
		}
		p.compareLazyOutcomes(t, "concurrent", baseline[qa], outs[qa])
	}
}

// The bake-off driver and concurrent runs read the compiled artifact's
// grid through its ContourSource, so an artifact compiled over a demand-
// driven LazySpace runs them like an eager one (both used to dereference
// an eager-only field and crash on a lazy artifact).
func TestLazyArtifactDrivesBakeoffAndThroughput(t *testing.T) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		t.Fatal(err)
	}
	ls, err := spec.LazySpaceWith(1.0, ess.Config{Res: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CompileSource(ls, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	bake, err := Bakeoff(c, spec.Name, BakeoffOptions{Strategies: []string{"spillbound", "planbouquet"}})
	if err != nil {
		t.Fatalf("lazy bake-off: %v", err)
	}
	if bake.D != 2 || bake.Res != 6 || bake.Points != 36 || len(bake.Rows) != 2 {
		t.Fatalf("lazy bake-off swept D=%d res=%d points=%d rows=%d", bake.D, bake.Res, bake.Points, len(bake.Rows))
	}
	for _, row := range bake.Rows {
		if !row.HasGuarantee || row.MSOe < 1 || row.MSOe > row.Guarantee {
			t.Errorf("%s over the lazy source: MSOe %v outside [1, guarantee %v]", row.Strategy, row.MSOe, row.Guarantee)
		}
	}

	for _, latency := range []time.Duration{0, 50 * time.Microsecond} {
		if steps := concurrentSteps(t, c, 2, 8, latency, nil); steps == 0 {
			t.Fatalf("concurrent lazy runs (latency %v) took no step", latency)
		}
	}
}
