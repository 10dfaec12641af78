package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/query"
	"repro/internal/server"
)

// Span names of the served request's stages.
const (
	spanHandler = "server.handler"
	spanDecode  = "server.decode"
	spanEncode  = "server.encode"
	spanSign    = "query.sign"
	spanGet     = "core.outcome_cache.get"
	spanPut     = "core.outcome_cache.put"
	spanRefine  = "ess.apply_refinements"
	spanDelta   = "ess.delta_append"
)

// replayArt is the harness's own artifact for one served workload,
// compiled over a timing source.
type replayArt struct {
	name     string
	src      *timedSource
	compiled *core.Compiled
	sig      uint64
	// lazy, snap and mark are set for a demand-driven artifact: the
	// replay then also folds observations back and appends the delta.
	lazy *ess.LazySpace
	snap string
	mark map[int32]bool
}

// replayer replays the stages of served requests on harness-owned
// instances built with the servers' configuration.
type replayer struct {
	tr    *tracer
	cache *core.OutcomeCache
	arts  map[string]*replayArt
	// deltaBytes totals what replayed delta appends wrote.
	deltaBytes int64
}

func newReplayer(tr *tracer, cacheBytes int64) *replayer {
	return &replayer{tr: tr, cache: core.NewOutcomeCache(cacheBytes), arts: map[string]*replayArt{}}
}

// add compiles a harness-owned artifact over src for the named
// workload.
func (r *replayer) add(name, sql string, src ess.ContourSource) (*replayArt, error) {
	sig, err := query.Sign(sql)
	if err != nil {
		return nil, err
	}
	ts := &timedSource{ContourSource: src, tr: r.tr}
	c, err := core.CompileSource(ts, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	art := &replayArt{name: name, src: ts, compiled: c, sig: sig.Hash}
	r.arts[name] = art
	return art, nil
}

// strategyOf resolves a request's algorithm/strategy fields the way the
// server does for the values the harness generates.
func strategyOf(req *server.DiscoverRequest) string {
	if req.Strategy != "" {
		return strings.ToLower(req.Strategy)
	}
	for _, p := range paperStrategies {
		if req.Algorithm == p.alias {
			return p.name
		}
	}
	return string(core.SpillBound)
}

// discoverAliases are the suffixes of every core.discover_us.* metric.
var discoverAliases = []string{"pb", "sb", "ab", "parqo", "robustmap", "adaptiveswitch"}

// aliasOf is the suffix of a strategy's per-layer metric name.
func aliasOf(strategy string) string {
	for _, p := range paperStrategies {
		if p.name == strategy {
			return p.alias
		}
	}
	return strategy
}

// key is the outcome-cache identity the server would derive.
func (a *replayArt) key(strategy string, qa int32) core.OutcomeKey {
	return core.OutcomeKey{
		SigHash: a.sig, Workload: a.name, Strategy: strategy, QA: int(qa),
		ExecWorkers: 1, Lambda: core.DefaultLambda, Epoch: a.src.Epoch(),
	}
}

// hits replays a batch of front-table hits: for each the server skipped
// decoding and went straight to the outcome cache.
func (r *replayer) hits(keys []core.OutcomeKey) {
	id := r.tr.begin(spanGet)
	for _, key := range keys {
		r.cache.Get(key)
	}
	sp := r.tr.end(id)
	sp.Replayed, sp.Count = true, len(keys)
}

// request replays every stage of one slow-path request under the open
// root span. resp is the body the server answered with.
func (r *replayer) request(body, resp []byte) error {
	var (
		req server.DiscoverRequest
		err error
	)
	r.tr.replay(spanDecode, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	if req.SQL != "" {
		r.tr.replay(spanSign, func() { _, err = query.Sign(req.SQL) })
		if err != nil {
			return err
		}
	}
	art, ok := r.arts[req.Workload]
	if !ok {
		return fmt.Errorf("replay: no artifact for %q", req.Workload)
	}
	strategy := strategyOf(&req)
	key := art.key(strategy, req.QA)
	hit := false
	r.tr.replay(spanGet, func() { _, hit = r.cache.Get(key) })
	if hit {
		return nil
	}

	var out *core.Outcome
	id := r.tr.begin(spanDiscover + "." + aliasOf(strategy))
	run := art.compiled.AcquireRun()
	out, err = run.DiscoverStrategyWith(strategy, &timedSim{eng: discovery.NewSimEngine(art.src, req.QA), tr: r.tr})
	core.ReleaseRun(run)
	sp := r.tr.end(id)
	sp.Replayed = true
	if err != nil {
		return fmt.Errorf("replay: %s on %s: %w", strategy, art.name, err)
	}
	sp.Steps = len(out.Steps)

	if art.lazy != nil {
		if err := r.refine(art, out); err != nil {
			return err
		}
	}
	if art.src.Epoch() == key.Epoch {
		val := &core.CachedOutcome{Outcome: out, Body: append([]byte(nil), resp...)}
		r.tr.replay(spanPut, func() { r.cache.Put(key, val) })
	}
	r.tr.replay(spanEncode, func() {
		_, err = json.Marshal(server.DiscoverResponse{
			Workload: req.Workload, Algorithm: req.Algorithm, Strategy: strategy, QA: req.QA,
			Completed: out.Completed, TotalCost: out.TotalCost,
			SubOpt: out.SubOpt(art.src.CostAt(req.QA)), Steps: len(out.Steps),
			Retries: out.Retries, WastedCost: out.WastedCost, AlignPenalty: out.AlignPenalty,
		})
	})
	return err
}

// refine is the lazy server's post-discovery step: every spill step
// that learned a dimension index becomes an observation, queued
// refinements are applied, and newly settled or refined points are
// appended to the snapshot with an fsync.
func (r *replayer) refine(art *replayArt, out *core.Outcome) error {
	r.tr.replay(spanRefine, func() {
		observed := false
		for _, st := range out.Steps {
			if st.Dim >= 0 && st.LearnedIdx >= 0 {
				art.lazy.Observe(st.Dim, st.LearnedIdx)
				observed = true
			}
		}
		if observed {
			art.lazy.ApplyRefinements()
		}
	})
	var err error
	before := fileSize(art.snap)
	r.tr.replay(spanDelta, func() {
		if d := art.lazy.DeltaSince(art.mark); d != nil {
			err = art.lazy.AppendDeltaFile(art.snap, d)
		}
	})
	r.deltaBytes += fileSize(art.snap) - before
	return err
}

// passStats is what the alternating traced pass measured around its
// spans.
type passStats struct {
	untracedOps, tracedOps int
	untracedNS, tracedNS   time.Duration
	untracedAlloc          uint64
}

// overheadRatio is the program's throughput in the traced chunks over
// its throughput in the untraced ones: how much recording spans and
// replaying between requests (which evicts the program's data from the
// CPU caches) slows the program down. The replay's own time is the
// harness's and is excluded.
func (p passStats) overheadRatio() float64 {
	if p.tracedNS <= 0 || p.untracedOps == 0 || p.untracedNS <= 0 {
		return 0
	}
	return (float64(p.tracedOps) / p.tracedNS.Seconds()) / (float64(p.untracedOps) / p.untracedNS.Seconds())
}

func (p passStats) allocBytesPerOp() float64 { return perOp(float64(p.untracedAlloc), p.untracedOps) }

// alternate runs positions 0..n-1 in chunks, untraced and traced in
// turn, so both halves see the same mix and the same drift. run reports
// how many of the chunk's ops count towards throughput and how much of
// its wall time does not: replay time, and ops whose cost depends on
// which chunk they fell in.
func alternate(n, chunk int, run func(lo, hi int, traced bool) (ops int, excluded time.Duration)) passStats {
	chunk = max(1, min(chunk, n/2)) // a short pass still gets a traced chunk
	var p passStats
	for lo, i := 0, 0; lo < n; lo, i = lo+chunk, i+1 {
		hi := min(lo+chunk, n)
		traced := i%2 == 1
		var meter allocMeter
		if !traced {
			meter = startAllocMeter()
		}
		t0 := time.Now()
		ops, excluded := run(lo, hi, traced)
		wall := time.Since(t0) - excluded
		if traced {
			p.tracedOps, p.tracedNS = p.tracedOps+ops, p.tracedNS+wall
		} else {
			p.untracedAlloc += meter.bytes()
			p.untracedOps, p.untracedNS = p.untracedOps+ops, p.untracedNS+wall
		}
	}
	return p
}

// serveLayers fills the per-layer metrics every served workload derives
// from its spans: stage times from the requests traced without detail,
// the discovery call profile from those traced with it.
func serveLayers(spans []span, lv layerValues) {
	sum := summarize(spans, false)
	lv["server.handler_us"] = sum.medianUS(spanHandler)
	lv["server.self_us"] = sum.medianSelfUS(spanHandler)
	lv["server.decode_us"] = sum.medianUS(spanDecode)
	lv["server.encode_us"] = sum.medianUS(spanEncode)
	lv["query.sign_us"] = sum.medianUS(spanSign)
	lv["core.outcome_cache.get_us"] = sum.medianUS(spanGet)
	lv["core.outcome_cache.put_us"] = sum.medianUS(spanPut)
	lv["ess.apply_refinements_us"] = sum.medianUS(spanRefine)
	lv["ess.delta_append_us"] = sum.medianUS(spanDelta)
	for _, a := range discoverAliases {
		lv["core.discover_us."+a] = sum.medianUS(spanDiscover + "." + a)
	}
	fine := summarize(spans, true)
	discoveryLayers(fine, spanDiscover, lv)
	lv["discovery.sim_exec_us"] = fine.medianUS(spanSimExec)
}

// cacheLayers fills the outcome-cache counters from the server's own
// statistics over the pass.
func cacheLayers(before, after core.CacheStats, lv layerValues) {
	lv["core.outcome_cache.hit_ratio"] = hitRatio(before.Hits, before.Misses, after.Hits, after.Misses)
	lv["core.outcome_cache.evictions"] = float64(after.Evictions - before.Evictions)
}

// discoveryLayers fills what any detailed discovery yields, served or
// not, from the spans named prefix.alias and their children: the
// algorithm's self time, and the ess and engine call profile per
// discovery.
func discoveryLayers(sum *spanSummary, prefix string, lv layerValues) {
	var (
		discNS, steps int64
		ops           int
		selfs         []int64
	)
	for _, a := range discoverAliases {
		for _, id := range sum.by[prefix+"."+a] {
			discNS += sum.spans[id].dur()
			steps += int64(sum.spans[id].Steps)
			selfs = append(selfs, sum.self[id])
			ops++
		}
	}
	lv["core.algorithm_self_us"] = medianNS(selfs) / 1e3
	lv["core.steps_per_op"] = perOp(float64(steps), ops)
	var engineCalls int
	for _, name := range []string{spanSimExec, spanExecFull, spanExecSpill, spanExecKilled} {
		engineCalls += sum.n(name)
	}
	lv["discovery.engine_calls_per_op"] = perOp(float64(engineCalls), ops)
	contourNS, contourCalls, _ := sum.total(spanContourAt)
	costNS, costCalls, _ := sum.total(lookupKinds[lookupCostAt])
	planNS, _, _ := sum.total(lookupKinds[lookupPlanAt])
	lv["ess.contour_at_us"] = sum.medianUS(spanContourAt)
	lv["ess.contour_at_calls"] = perOp(float64(contourCalls), ops)
	lv["ess.cost_at_calls"] = perOp(float64(costCalls), ops)
	if discNS > 0 {
		lv["ess.share_of_discover"] = float64(contourNS+costNS+planNS) / float64(discNS)
	}
}
