package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

const (
	realScale = 0.5
	// realDataSeed fixes the generated rows. At this scale a different
	// data seed moves the true selectivities across grid cells, which
	// changes the plans discovery runs and so the work itself: -seed
	// would then compare different workloads, not repeat one.
	realDataSeed = fixedSeed
	realBuckets  = 24
	// realRounds is the number of measured rounds at size 1.
	realRounds = 24
)

// realSpecs run SpillBound and AlignedBound; those flagged also run
// PlanBouquet, whose full executions are an order of magnitude longer.
var realSpecs = []struct {
	name string
	pb   bool
}{
	{"EQ", true}, {"3D_Q15", false}, {"3D_Q96", true}, {"4D_Q7", false},
	{"4D_Q26", true}, {"4D_Q91", true}, {"5D_Q19", false},
}

var queryReal = &workloadDef{
	name: "query_real", clients: 1, setupReps: 3,
	setup: setupReal,
}

// realQuery is one spec bound to the shared store.
type realQuery struct {
	name     string
	q        *query.Query
	space    *ess.Space
	compiled *core.Compiled
	executor *exec.Executor
	qa       int32
	// oracleCost is the metered cost of the optimal plan at the data's
	// true location, really executed: the denominator of sub_opt.
	oracleCost float64
}

// realOp is one (spec, algorithm) pair of a round.
type realOp struct {
	rq    *realQuery
	alg   core.Algorithm
	bound float64
}

type realInst struct {
	store   *storage.Store
	queries []*realQuery
	ops     []realOp
	// layer probes read these set-up timings.
	populateS, statsS float64
}

func setupReal(o *runOpts) (instance, error) {
	r := &realInst{}
	eq, err := workload.ByName("EQ")
	if err != nil {
		return nil, err
	}
	q0, err := eq.Load(realScale)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r.store, err = datagen.Populate(q0.Cat, datagen.Options{Seed: realDataSeed, BuildIndexes: true})
	if err != nil {
		return nil, err
	}
	r.populateS = time.Since(t0).Seconds()
	t0 = time.Now()
	st, err := stats.FromData(q0.Cat, r.store, realBuckets)
	if err != nil {
		return nil, err
	}
	r.statsS = time.Since(t0).Seconds()
	model := cost.NewModel(cost.DefaultParams())
	for _, rs := range realSpecs {
		spec, err := workload.ByName(rs.name)
		if err != nil {
			return nil, err
		}
		q, err := spec.Load(realScale)
		if err != nil {
			return nil, err
		}
		space, err := ess.Build(q, optimizer.BuildEnv(q, st), model, ess.Config{Res: spec.Res})
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", rs.name, err)
		}
		compiled, err := core.Compile(space, core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		rq := &realQuery{
			name: rs.name, q: q, space: space, compiled: compiled,
			executor: exec.New(q, r.store, cost.DefaultParams()).WithWorkers(1),
		}
		// The data's true location: measured join selectivities snapped
		// to the grid.
		idx := make([]int, q.D())
		for d, joinID := range q.EPPs {
			sel, err := stats.TrueJoinSel(r.store, q, q.Joins[joinID])
			if err != nil {
				return nil, err
			}
			idx[d] = space.Grid.NearestIndex(sel)
		}
		rq.qa = int32(space.Grid.Linear(idx))
		oracle, err := rq.executor.Run(space.Plan(space.PlanAt(rq.qa)).Root, 0)
		if err != nil {
			return nil, fmt.Errorf("oracle run of %s: %w", rs.name, err)
		}
		rq.oracleCost = oracle.Cost
		r.queries = append(r.queries, rq)
		algs := []core.Algorithm{core.SpillBound, core.AlignedBound}
		if rs.pb {
			algs = append(algs, core.PlanBouquet)
		}
		for _, alg := range algs {
			bound, _ := compiled.StrategyGuarantee(string(alg))
			r.ops = append(r.ops, realOp{rq: rq, alg: alg, bound: bound})
		}
	}
	return r, nil
}

func (r *realInst) close() {}

// discover runs one discovery over real executions on an artifact of
// the op's space, through wrap's engine decorator when given.
func (op realOp) discover(c *core.Compiled, wrap func(discovery.FallibleEngine) discovery.FallibleEngine) (*core.Outcome, error) {
	var eng discovery.FallibleEngine = experiments.NewRealEngine(op.rq.space, op.rq.executor)
	if wrap != nil {
		eng = wrap(eng)
	}
	return c.NewRun().DiscoverWith(op.alg, discovery.NewResilient(eng, discovery.DefaultRetryPolicy))
}

func (r *realInst) measure(o *runOpts) (*measured, error) {
	rounds := o.count(realRounds, laps)
	t := newTally()
	first := make([]outcome, len(r.ops))
	order := newRNG(o.seed).fork(6)
	ls := make([]lap, laps)
	for li := range ls {
		o.probe()
		lat := make([]int64, 0, rounds/laps*len(r.ops))
		start := time.Now()
		for round := li * (rounds / laps); round < (li+1)*(rounds/laps); round++ {
			for _, k := range order.perm(len(r.ops)) {
				op := r.ops[k]
				t0 := time.Now()
				out, err := op.discover(op.rq.compiled, nil)
				lat = append(lat, int64(time.Since(t0)))
				if err != nil || out == nil {
					t.fail()
					continue
				}
				got := outcome{completed: out.Completed, steps: len(out.Steps), totalCost: out.TotalCost, subOpt: out.SubOpt(op.rq.oracleCost)}
				if round == 0 {
					first[k] = got
				} else if got != first[k] {
					// Real executions are metered, and the meter is
					// deterministic: a repeat must reproduce round 1.
					t.fail()
					continue
				}
				t.op(http.StatusOK, got, op.bound, true)
			}
		}
		ls[li] = lap{ops: len(lat), wall: time.Since(start), ns: lat}
	}
	m := &measured{tally: t, laps: ls, perSample: 1}
	m.notes = append(m.notes, fmt.Sprintf("%d rounds of %d discoveries over %d specs at scale %g", rounds, len(r.ops), len(r.queries), realScale))
	return m, nil
}

// spanReal prefixes the root span of a real-execution discovery.
const spanReal = "discovery.real"

// layers runs rounds alternately untraced and traced. A traced
// discovery is a root span with every real execution below it, named by
// call class and carrying the cost it metered; the artifact is compiled
// over a timing source so contour lookups show too. Then come the
// probes: oracle-plan wall time at one and two workers, and
// single-operator plans on the executor benchmark's fact/dim fixture.
func (r *realInst) layers(o *runOpts, tr *tracer) (layerValues, error) {
	lv := layerValues{"datagen.populate_s": r.populateS, "stats.from_data_s": r.statsS}
	traced := make(map[*realQuery]*core.Compiled, len(r.queries))
	for _, rq := range r.queries {
		t0 := time.Now()
		c, err := core.CompileSource(&timedSource{ContourSource: rq.space, tr: tr}, core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		lv["core.compile_us"] += us(time.Since(t0))
		traced[rq] = c
	}
	wrap := func(eng discovery.FallibleEngine) discovery.FallibleEngine { return &timedReal{eng: eng, tr: tr} }
	rounds := o.count(realRounds/2, 2)
	order := newRNG(o.seed).fork(6)
	var rerr error
	// One warm round first: the first execution of each plan faults in
	// the column vectors and builds PlanBouquet's reduction, and would
	// otherwise all land in the first, untraced, chunk.
	for _, op := range r.ops {
		if _, err := op.discover(op.rq.compiled, nil); err != nil {
			return nil, err
		}
	}
	pass := alternate(rounds*len(r.ops), len(r.ops), func(lo, hi int, tracedRound bool) (int, time.Duration) {
		for _, k := range order.perm(len(r.ops)) {
			op := r.ops[k]
			var err error
			if tracedRound {
				id := tr.root(spanReal + "." + aliasOf(string(op.alg)))
				tr.detail, tr.spans[id].Detailed = true, true
				var out *core.Outcome
				out, err = op.discover(traced[op.rq], wrap)
				if sp := tr.end(id); out != nil {
					sp.Steps = len(out.Steps)
				}
			} else {
				_, err = op.discover(op.rq.compiled, nil)
			}
			if err != nil && rerr == nil {
				rerr = err
			}
		}
		return hi - lo, 0
	})
	if rerr != nil {
		return nil, rerr
	}
	lv["runtime.alloc_bytes_per_op"] = pass.allocBytesPerOp()
	lv["trace.overhead_ratio"] = pass.overheadRatio()
	// Every real execution is milliseconds long, so each traced
	// discovery is detailed.
	sum := summarize(tr.spans, true)
	discoveryLayers(sum, spanReal, lv)
	for _, p := range paperStrategies {
		lv["discovery.real_us."+p.alias] = sum.medianUS(spanReal + "." + p.alias)
	}
	for _, class := range []struct{ span, name string }{
		{spanExecFull, "full"}, {spanExecSpill, "spill"}, {spanExecKilled, "killed"},
	} {
		ns, _, costUnits := sum.total(class.span)
		lv["exec."+class.name+"_us"] = sum.medianUS(class.span)
		if costUnits > 0 {
			lv["exec.ns_per_cost_unit."+class.name] = float64(ns) / costUnits
		}
	}

	// Oracle plans: the optimal plan at the data's true location, run to
	// completion, at one worker and at two.
	oracle := map[*realQuery]float64{}
	var w1, w2 time.Duration
	for _, rq := range r.queries {
		root := rq.space.Plan(rq.space.PlanAt(rq.qa)).Root
		d1, err := medianRun(rq.executor, root)
		if err != nil {
			return nil, err
		}
		d2, err := medianRun(exec.New(rq.q, r.store, cost.DefaultParams()).WithWorkers(2), root)
		if err != nil {
			return nil, err
		}
		oracle[rq], w1, w2 = float64(d1), w1+d1, w2+d2
	}
	lv["exec.morsel_speedup_w2"] = float64(w1) / float64(w2)
	for _, p := range paperStrategies {
		var walls []float64
		for _, op := range r.ops {
			if string(op.alg) == p.name {
				walls = append(walls, oracle[op.rq])
			}
		}
		if m := median(walls); m > 0 {
			lv["discovery.wall_subopt."+p.alias] = medianNS(sum.durs(spanReal+"."+p.alias)) / m
		}
	}
	return lv, execFixture(lv)
}

// medianRun runs the plan to completion three times and returns the
// median wall time.
func medianRun(ex *exec.Executor, root *plan.Node) (time.Duration, error) {
	var d []int64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res, err := ex.Run(root, 0)
		if err != nil {
			return 0, err
		}
		if !res.Completed {
			return 0, fmt.Errorf("unbudgeted run did not complete")
		}
		d = append(d, int64(time.Since(t0)))
	}
	return time.Duration(medianNS(d)), nil
}

// execFixture times single-operator plans on the star schema of
// internal/exec's benchmarks (2000-row dim, 50000-row fact), rebuilt
// here from the exported catalog, plan and sqlparse surfaces: wall
// nanoseconds per metered cost unit, per operator class. If the classes
// disagree, the optimizer's relative costing does not match the clock.
func execFixture(lv layerValues) error {
	c := catalog.New("execbench", 1)
	c.AddTable(&catalog.Table{Name: "dim", BaseRows: 2000, Columns: []catalog.Column{
		{Name: "d_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "d_attr", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 4},
	}})
	c.AddTable(&catalog.Table{Name: "fact", BaseRows: 50000, Columns: []catalog.Column{
		{Name: "f_id", Type: catalog.Int64, Dist: catalog.Serial},
		{Name: "f_dim", Type: catalog.Int64, Dist: catalog.FKUniform, Ref: "dim"},
		{Name: "f_val", Type: catalog.Int64, Dist: catalog.Uniform, Min: 1, Max: 100},
	}})
	store, err := datagen.Populate(c, datagen.Options{Seed: 77, BuildIndexes: true})
	if err != nil {
		return err
	}
	scan, err := sqlparse.Parse("scan", c, `SELECT * FROM fact f WHERE f.f_val <= 50`)
	if err != nil {
		return err
	}
	join, err := sqlparse.Parse("join", c, `SELECT * FROM fact f, dim d WHERE f.f_dim = d.d_id`)
	if err != nil {
		return err
	}
	joinPlan := func(m plan.JoinMethod) *plan.Node {
		return plan.NewJoin(m, []int{0},
			plan.NewScan(join.RelIndex("f"), plan.SeqScan), plan.NewScan(join.RelIndex("d"), plan.SeqScan))
	}
	for _, f := range []struct {
		name string
		q    *query.Query
		root *plan.Node
	}{
		{"seqscan", scan, plan.NewScan(scan.RelIndex("f"), plan.SeqScan)},
		{"hashjoin", join, joinPlan(plan.HashJoin)},
		{"indexnl", join, joinPlan(plan.IndexNLJoin)},
	} {
		ex := exec.New(f.q, store, cost.DefaultParams()).WithWorkers(1)
		d, err := medianRun(ex, f.root)
		if err != nil {
			return fmt.Errorf("fixture %s: %w", f.name, err)
		}
		res, err := ex.Run(f.root, 0)
		if err != nil {
			return err
		}
		lv["exec.ns_per_cost_unit."+f.name] = float64(d) / res.Cost
	}
	return nil
}
