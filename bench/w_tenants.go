package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tenantRanks is the fixed popularity order of the on-demand tenants:
// rank r is picked with probability ∝ 1/(r+1). It interleaves cheap and
// expensive compiles, and every spec in the first ranks has more grid
// points than requests it will receive, so no (tenant, qa) ever repeats
// and the outcome cache stays out of the picture.
var tenantRanks = []string{
	"4D_Q91", "5D_Q19", "3D_Q15", "6D_Q91", "4D_Q7", "2D_Q91", "5D_Q84", "3D_Q96",
	"4D_Q26", "6D_Q18", "5D_Q29", "4D_Q27", "3D_Q91", "5D_Q91", "JOB_Q1a",
}

const (
	// tenantCacheBytes holds well under half of the fifteen artifacts
	// (about 2.4 MB by the cache's own estimate), so the LRU evicts.
	tenantCacheBytes = 1 << 20
	tenantBurst      = 20
	// tenantLapBursts is the number of bursts in a lap at size 1. The
	// same picks repeat every lap (with fresh qa), so from the second lap
	// on the artifact LRU is in a periodic steady state and every lap
	// pays the same compiles: laps are comparable, and the first one,
	// which starts from an empty cache, belongs to set-up.
	tenantLapBursts = 16
)

var serveTenants = &workloadDef{
	name: "serve_tenants", clients: 1, setupReps: 2,
	setup: setupTenants,
}

type tenantsInst struct {
	srv *server.Server
	// picks is the fixed tenant sequence of one lap, one entry per burst.
	picks []int
	// qaOrder[t][a] is the fixed set of grid points tenant t is asked
	// for under algorithm tenantAlgs[a], in the seed's order.
	qaOrder [][][]int32
	specs   []workload.Spec
	// bodies is the rendered measured sequence; tenant and strategy name
	// each request's tenant rank and resolved strategy.
	bodies   [][]byte
	tenant   []int
	strategy []string
}

func setupTenants(o *runOpts) (instance, error) {
	srv, err := newServer(server.Config{Workloads: []string{"EQ"}, CacheBytes: tenantCacheBytes})
	if err != nil {
		return nil, err
	}
	t := &tenantsInst{srv: srv}
	z, pick := newZipf(len(tenantRanks), 1.0), newRNG(fixedSeed).fork(3)
	t.picks = make([]int, o.count(tenantLapBursts, 1))
	perTenant := make([]int, len(tenantRanks))
	for i := range t.picks {
		t.picks[i] = z.draw(pick)
		perTenant[t.picks[i]] += tenantBurst * (laps + 1)
	}
	r, fixed := newRNG(o.seed).fork(3), newRNG(fixedSeed).fork(4)
	for i, name := range tenantRanks {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		if points := gridPoints(spec); perTenant[i] > points {
			return nil, fmt.Errorf("tenant %s would get %d requests but has %d grid points", name, perTenant[i], points)
		}
		t.specs = append(t.specs, spec)
		// A fixed half of the tenant's points goes to each algorithm, and
		// the first 1/(laps+1) of each half to the warm lap, so the seed
		// never changes which (qa, algorithm) pairs the measured laps ask.
		qas := fixed.perm(gridPoints(spec))[:perTenant[i]]
		byAlg := make([][]int32, len(tenantAlgs))
		for a := range byAlg {
			half := qas[a*len(qas)/len(byAlg) : (a+1)*len(qas)/len(byAlg)]
			warm := len(half) / (laps + 1)
			byAlg[a] = append([]int32(nil), half...)
			for j, k := range r.perm(len(half) - warm) {
				byAlg[a][warm+j] = half[warm+int(k)]
			}
		}
		t.qaOrder = append(t.qaOrder, byAlg)
	}
	if err := t.render(); err != nil {
		return nil, err
	}
	// The warm lap: from an empty artifact cache to the steady state.
	c := newClient(srv.Handler())
	for _, b := range t.bodies[:t.lapOps()] {
		if code := c.post(b); code != http.StatusOK {
			return nil, fmt.Errorf("warm lap, %s: status %d: %s", b, code, c.w.body)
		}
	}
	return t, nil
}

// lapOps is the number of requests in one lap.
func (t *tenantsInst) lapOps() int { return len(t.picks) * tenantBurst }

func (t *tenantsInst) close() {}

// tenantAlgs alternate within a burst: SpillBound and AlignedBound.
var tenantAlgs = paperStrategies[1:]

// render builds the warm lap and the measured ones: every burst is
// tenantBurst distinct-qa requests of one tenant, addressed by its SQL
// text with the workload name to disambiguate the Q91 family.
func (t *tenantsInst) render() error {
	next := make([]int, len(t.specs))
	for burst := 0; burst < (laps+1)*len(t.picks); burst++ {
		p := t.picks[burst%len(t.picks)]
		for i := 0; i < tenantBurst; i++ {
			a := i % len(tenantAlgs)
			alg := tenantAlgs[a]
			b, err := json.Marshal(server.DiscoverRequest{
				Workload: t.specs[p].Name, SQL: t.specs[p].SQL, Algorithm: alg.alias,
				QA: t.qaOrder[p][a][next[p]/len(tenantAlgs)],
			})
			if err != nil {
				return err
			}
			next[p]++
			t.bodies, t.tenant = append(t.bodies, b), append(t.tenant, p)
			t.strategy = append(t.strategy, alg.name)
		}
	}
	return nil
}

func (t *tenantsInst) measure(o *runOpts) (*measured, error) {
	warm := t.lapOps()
	bodies, tenant, strategy := t.bodies[warm:], t.tenant[warm:], t.strategy[warm:]
	outs := make([]outcome, len(bodies))
	codes := make([]int, len(bodies))
	c := newClient(t.srv.Handler())
	before := t.compiles()
	ls := make([]lap, laps)
	for li := range ls {
		o.probe()
		lat := make([]int64, 0, warm)
		start := time.Now()
		for i := li * warm; i < (li+1)*warm; i++ {
			t0 := time.Now()
			codes[i] = c.post(bodies[i])
			lat = append(lat, int64(time.Since(t0)))
			outs[i], _ = parseOutcome(c.w.body)
		}
		ls[li] = lap{ops: warm, wall: time.Since(start), ns: lat}
	}

	refs, err := buildReferences(tenantRanks)
	if err != nil {
		return nil, err
	}
	tl := newTally()
	for i := range bodies {
		tl.op(codes[i], outs[i], refs[tenantRanks[tenant[i]]].bound(strategy[i]), true)
	}
	compiles := t.compiles() - before
	cs := t.srv.CacheStats()
	m := &measured{tally: tl, laps: ls, perSample: 1}
	m.notes = append(m.notes, fmt.Sprintf("%d laps of %d bursts of %d; %d compiles after the warm lap, artifact cache %d hits %d misses %d evictions, %d bytes resident",
		laps, len(t.picks), tenantBurst, compiles, cs.Hits, cs.Misses, cs.Evictions, cs.Bytes))
	if compiles == 0 && o.size >= 1 {
		m.regime = fmt.Errorf("no compile after the warm lap: the tenants now fit the artifact cache")
	}
	return m, nil
}

// compiles is the number of on-demand compiles the server has paid.
func (t *tenantsInst) compiles() int64 {
	var n int64
	for _, name := range tenantRanks {
		n += t.srv.CompileCount(name)
	}
	return n
}

// tenantTraceEvery is how many requests of a traced chunk share one
// traced one; odd, so that both of a burst's alternating algorithms get
// traced.
const tenantTraceEvery = 5

// layers probes the compile pipeline stage by stage on the harness's
// own copies of the fifteen artifacts, then runs the measured sequence
// with half-bursts alternately untraced and traced, so both halves see
// every tenant. A request during which
// the tenant's CompileCount advanced is cold; throughput for the
// tracing overhead counts warm requests only, because which bursts
// compile is a property of the sequence, not of tracing.
func (t *tenantsInst) layers(o *runOpts, tr *tracer) (layerValues, error) {
	lv := layerValues{}
	rp := newReplayer(tr, 0)
	model := cost.NewModel(cost.DefaultParams())
	var (
		parses            []int64
		fallbacks, recost int64
		bounds            = map[string]map[string]float64{}
	)
	for _, spec := range t.specs {
		q, err := spec.Load(1.0)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := sqlparse.Parse(spec.Name, q.Cat, spec.SQL); err != nil {
			return nil, err
		}
		parses = append(parses, int64(time.Since(t0)))
		env := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat))
		t0 = time.Now()
		space, err := ess.Build(q, env, model, ess.Config{Res: spec.Res})
		if err != nil {
			return nil, err
		}
		lv["ess.build_us"] += us(time.Since(t0))
		prof := space.Profile()
		lv["optimizer.dp_calls"] += float64(prof.DPCalls)
		lv["ess.recost_calls"] += float64(prof.RecostCalls)
		fallbacks, recost = fallbacks+prof.Fallbacks, recost+prof.RecostPoints
		t0 = time.Now()
		art, err := rp.add(spec.Name, spec.SQL, space)
		if err != nil {
			return nil, err
		}
		lv["core.compile_us"] += us(time.Since(t0))
		t0 = time.Now()
		bounds[spec.Name] = map[string]float64{}
		for _, alg := range tenantAlgs {
			if err := art.compiled.PrepareStrategy(alg.name); err != nil {
				return nil, err
			}
			bounds[spec.Name][alg.name], _ = art.compiled.StrategyGuarantee(alg.name)
		}
		lv["core.prepare_strategy_us"] += us(time.Since(t0))
		if spec.Name == tenantRanks[0] {
			lv["optimizer.optcost_us"] = optCostUS(space, space.NewEvaluator())
		}
	}
	lv["sqlparse.parse_us"] = medianNS(parses) / 1e3
	if recost+fallbacks > 0 {
		lv["ess.fallback_rate"] = float64(fallbacks) / float64(recost+fallbacks)
	}

	var cold, warm []int64
	var rerr error
	violations := 0
	c := newClient(t.srv.Handler())
	first := t.lapOps() // the warm lap ran in set-up
	stats := alternate(len(t.bodies)-first, tenantBurst/2, func(lo, hi int, traced bool) (int, time.Duration) {
		var excluded time.Duration
		ops := 0
		for i := first + lo; i < first+hi; i++ {
			name, body := t.specs[t.tenant[i]].Name, t.bodies[i]
			compiles := t.srv.CompileCount(name)
			var handler time.Duration
			if traced && i%tenantTraceEvery == 0 {
				var replayed time.Duration
				handler, replayed = tr.served(func() { c.post(body) }, func() {
					if err := rp.request(body, c.w.body); err != nil && rerr == nil {
						rerr = err
					}
				})
				excluded += replayed
			} else {
				t0 := time.Now()
				c.post(body)
				handler = time.Since(t0)
			}
			out, ok := parseOutcome(c.w.body)
			if (c.w.code != http.StatusOK || !ok) && rerr == nil {
				rerr = fmt.Errorf("%s: status %d: %s", body, c.w.code, c.w.body)
			}
			if violates(out.subOpt, bounds[name][t.strategy[i]]) {
				violations++
			}
			if t.srv.CompileCount(name) != compiles {
				cold, excluded = append(cold, int64(handler)), excluded+handler
			} else {
				warm, ops = append(warm, int64(handler)), ops+1
			}
		}
		return ops, excluded
	})
	if rerr != nil {
		return nil, rerr
	}
	serveLayers(tr.spans, lv)
	lv["server.cold_p50_us"] = medianNS(cold) / 1e3
	lv["server.warm_p50_us"] = medianNS(warm) / 1e3
	lv["server.compiles"] = float64(t.compiles())
	cs := t.srv.CacheStats()
	lv["core.artifact_cache.hit_ratio"] = hitRatio(0, 0, cs.Hits, cs.Misses)
	lv["core.artifact_cache.evictions"] = float64(cs.Evictions)
	lv["core.artifact_cache.bytes"] = float64(cs.Bytes)
	ocs, _ := t.srv.OutcomeCacheStats()
	cacheLayers(core.CacheStats{}, ocs, lv)
	lv["core.bound_violations"] = float64(violations)
	lv["runtime.alloc_bytes_per_op"] = stats.allocBytesPerOp()
	lv["trace.overhead_ratio"] = stats.overheadRatio()
	return lv, nil
}

// optCostUS is the mean time of Evaluator.OptCost over 256 grid points
// spread evenly: an array read on an eager space, a settle on a fresh
// lazy one.
func optCostUS(src ess.ContourSource, ev *ess.Evaluator) float64 {
	const samples = 256
	points := src.Geometry().NumPoints()
	t0 := time.Now()
	for i := 0; i < samples; i++ {
		ev.OptCost(int32(i * points / samples))
	}
	return us(time.Since(t0)) / samples
}
