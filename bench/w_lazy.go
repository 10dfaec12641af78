package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	lazySpec = "5D_Q91"
	// lazyRes 8 makes a 32768-point grid, of which requests settle a
	// small fraction.
	lazyRes    = 8
	lazyPoints = lazyRes * lazyRes * lazyRes * lazyRes * lazyRes
	// lazyPriming requests run on the first server, before the restart.
	lazyPriming = 250
	// lazyOps is the measured request count at size 1.
	lazyOps = 2_400
)

var serveLazy = &workloadDef{
	name: "serve_lazy", clients: 1, setupReps: 2,
	setup: setupLazy,
}

type lazyRequest struct {
	strategy string
	body     []byte
}

// bound is the guarantee a lazy request's sub_opt is held against:
// SpillBound's D²+3D for the 5-D spec, which AlignedBound shares as its
// upper end; none (0) for PlanBouquet, whose bound depends on the
// reduction of a surface that is still moving. A violation on this
// workload is reported, not failed: refinement lowers recost-settled
// costs under a discovery that already budgeted against the older
// surface.
func (r lazyRequest) bound() float64 {
	if r.strategy == string(core.PlanBouquet) {
		return 0
	}
	const d = 5
	return d*d + 3*d
}

type lazyInst struct {
	srv  *server.Server
	dir  string
	reqs []lazyRequest // the measured sequence, in seeded order
}

func lazyConfig(dir string) server.Config {
	return server.Config{Workloads: []string{lazySpec}, ESSMode: "lazy", Res: lazyRes, SnapshotDir: dir}
}

// lazyWindow is the span within which the seed reorders the lazy
// request sequence. What a lazy request costs depends on what ran before
// it (which points are settled, when the epoch last moved), so a global
// shuffle would give every seed a different workload; swaps within a
// window leave the course of the run the same.
const lazyWindow = 8

// lazyRequests draws a fixed sequence of n (algorithm, qa) requests and
// returns it with each window of lazyWindow in the seed's order.
func lazyRequests(n int, stream uint64, seed uint64) []lazyRequest {
	fixed := newRNG(fixedSeed).fork(stream)
	reqs := make([]lazyRequest, n)
	for i := range reqs {
		strat := paperStrategies[fixed.intn(len(paperStrategies))].name
		reqs[i] = lazyRequest{strategy: strat, body: discoverBody(lazySpec, strat, fixed.intn(lazyPoints))}
	}
	r := newRNG(seed).fork(stream)
	for lo := 0; lo < n; lo += lazyWindow {
		w := append([]lazyRequest(nil), reqs[lo:min(lo+lazyWindow, n)]...)
		for i, k := range r.perm(len(w)) {
			reqs[lo+i] = w[k]
		}
	}
	return reqs
}

// setupLazy is the restart an operator does: build server A cold, serve
// the priming requests (each appends its refinement delta to the
// snapshot), drop A, and start server B on the same directory, which
// warm-loads the base frame strictly and replays the deltas.
func setupLazy(o *runOpts) (instance, error) {
	dir, err := os.MkdirTemp(o.tmp, "lazy-")
	if err != nil {
		return nil, err
	}
	a, err := newServer(lazyConfig(dir))
	if err != nil {
		return nil, err
	}
	c := newClient(a.Handler())
	for _, r := range lazyRequests(o.count(lazyPriming, 1), 4, o.seed) {
		if code := c.post(r.body); code != http.StatusOK {
			return nil, fmt.Errorf("priming %s: status %d: %s", r.body, code, c.w.body)
		}
	}
	b, err := newServer(lazyConfig(dir))
	if err != nil {
		return nil, err
	}
	page := get(b.Handler(), "/workloads")
	if !bytes.Contains(page, []byte(`"warm_loaded":true`)) {
		return nil, fmt.Errorf("server B did not warm-load the snapshot in %s: %s", dir, page)
	}
	return &lazyInst{srv: b, dir: dir, reqs: lazyRequests(o.count(lazyOps, laps), 5, o.seed)}, nil
}

func (l *lazyInst) close() { os.RemoveAll(l.dir) }

func (l *lazyInst) measure(o *runOpts) (*measured, error) {
	t := newTally()
	c := newClient(l.srv.Handler())
	ls := make([]lap, laps)
	perLap := len(l.reqs) / laps
	for li := range ls {
		o.probe()
		lat := make([]int64, 0, perLap)
		start := time.Now()
		for _, r := range l.reqs[li*perLap : (li+1)*perLap] {
			t0 := time.Now()
			code := c.post(r.body)
			lat = append(lat, int64(time.Since(t0)))
			out, ok := parseOutcome(c.w.body)
			if code != http.StatusOK || !ok {
				t.fail()
				continue
			}
			t.op(code, out, r.bound(), false)
		}
		ls[li] = lap{ops: perLap, wall: time.Since(start), ns: lat}
	}
	page := get(l.srv.Handler(), "/metrics")
	epoch := promValue(page, `rqp_lazy_epoch{workload="`+lazySpec+`"}`)
	// Laps differ: the surface settles and the in-memory caches fill as
	// the run goes, so later laps are cheaper.
	m := &measured{tally: t, laps: ls, perSample: 1, unequalLaps: true}
	m.notes = append(m.notes, fmt.Sprintf("epoch %g, %g points settled, %g refined; snapshot %d bytes",
		epoch, promValue(page, `rqp_lazy_settled_points{workload="`+lazySpec+`"}`),
		promValue(page, "rqp_refined_points_total"), fileSize(filepath.Join(l.dir, lazySpec+".lazy.snap"))))
	if epoch == 0 && o.size >= 1 {
		m.regime = fmt.Errorf("refinement epoch stayed 0: no request refined the surface")
	}
	return m, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// lazyTraceEvery is how many requests of a traced chunk share one
// traced one.
const lazyTraceEvery = 8

// layers replays on a harness-owned lazy space loaded from a copy of
// the server's own snapshot, so it starts where server B started.
// Only sampled requests are replayed on it, so it then sees fewer
// observations than the server; what the replay times (the refinement
// scan over every grid point, the fsynced append) does not depend on
// that. The settle, refine and epoch counts come from the server's
// /metrics and are exact.
func (l *lazyInst) layers(o *runOpts, tr *tracer) (layerValues, error) {
	lv := layerValues{}
	spec, err := workload.ByName(lazySpec)
	if err != nil {
		return nil, err
	}
	q, err := spec.Load(1.0)
	if err != nil {
		return nil, err
	}
	env, model := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat)), cost.NewModel(cost.DefaultParams())
	cfg := ess.Config{Res: lazyRes}
	t0 := time.Now()
	fresh, err := ess.BuildLazy(q, env, model, cfg)
	if err != nil {
		return nil, err
	}
	lv["ess.build_lazy_us"] = us(time.Since(t0))
	lv["optimizer.optcost_us"] = optCostUS(fresh, fresh.NewEvaluator())

	served := filepath.Join(l.dir, lazySpec+".lazy.snap")
	snap := filepath.Join(l.dir, "harness.lazy.snap")
	frame, err := os.ReadFile(served)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(snap, frame, 0o644); err != nil {
		return nil, err
	}
	t0 = time.Now()
	ls, err := ess.LoadLazyFile(snap, q, env, model, cfg, ess.LoadOptions{Strict: true})
	if err != nil {
		return nil, err
	}
	lv["ess.snapshot_load_us"] = us(time.Since(t0))
	t0 = time.Now()
	if err := ls.SaveFile(filepath.Join(l.dir, "harness.save.snap")); err != nil {
		return nil, err
	}
	lv["ess.snapshot_save_us"] = us(time.Since(t0))

	rp := newReplayer(tr, 0)
	t0 = time.Now()
	art, err := rp.add(lazySpec, spec.SQL, ls)
	if err != nil {
		return nil, err
	}
	lv["core.compile_us"] = us(time.Since(t0))
	art.lazy, art.snap, art.mark = ls, snap, map[int32]bool{}
	ls.DeltaSince(art.mark) // the base frame holds these already

	var rerr error
	violations, replayed := 0, 0
	c := newClient(l.srv.Handler())
	before, _ := l.srv.OutcomeCacheStats()
	stats := alternate(len(l.reqs), 5*lazyTraceEvery, func(lo, hi int, traced bool) (int, time.Duration) {
		var excluded time.Duration
		for i := lo; i < hi; i++ {
			r := l.reqs[i]
			if traced && i%lazyTraceEvery == 0 {
				replayed++
				_, took := tr.served(func() { c.post(r.body) }, func() {
					if err := rp.request(r.body, c.w.body); err != nil && rerr == nil {
						rerr = err
					}
				})
				excluded += took
			} else {
				c.post(r.body)
			}
			out, ok := parseOutcome(c.w.body)
			if (c.w.code != http.StatusOK || !ok) && rerr == nil {
				rerr = fmt.Errorf("%s: status %d: %s", r.body, c.w.code, c.w.body)
			}
			if violates(out.subOpt, r.bound()) {
				violations++
			}
		}
		return hi - lo, excluded
	})
	if rerr != nil {
		return nil, rerr
	}
	after, _ := l.srv.OutcomeCacheStats()
	serveLayers(tr.spans, lv)
	cacheLayers(before, after, lv)

	page := get(l.srv.Handler(), "/metrics")
	label := `{workload="` + lazySpec + `"}`
	points := float64(ls.Geometry().NumPoints())
	hits, misses := promValue(page, "rqp_lazy_contour_hits_total"+label), promValue(page, "rqp_lazy_contour_misses_total"+label)
	lv["ess.lazy_settled_points"] = promValue(page, "rqp_lazy_settled_points"+label)
	lv["ess.lazy_settled_frac"] = lv["ess.lazy_settled_points"] / points
	if hits+misses > 0 {
		lv["ess.lazy_hit_ratio"] = hits / (hits + misses)
	}
	lv["ess.refined_points"] = promValue(page, "rqp_refined_points_total")
	lv["ess.epoch"] = promValue(page, "rqp_lazy_epoch"+label)
	lv["ess.snapshot_bytes"] = float64(fileSize(served))
	lv["ess.delta_bytes_per_op"] = perOp(float64(rp.deltaBytes), replayed)
	prof := ls.Profile()
	lv["optimizer.dp_calls"] = float64(prof.DPCalls)
	lv["ess.recost_calls"] = float64(prof.RecostCalls)
	lv["ess.fallback_rate"] = prof.FallbackRate()
	lv["core.bound_violations"] = float64(violations)
	lv["runtime.alloc_bytes_per_op"] = stats.allocBytesPerOp()
	lv["trace.overhead_ratio"] = stats.overheadRatio()
	return lv, nil
}
