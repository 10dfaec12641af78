package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/server"
	"repro/internal/workload"
)

var hotSpecs = []string{"EQ", "2D_Q91", "3D_Q91", "4D_Q91", "5D_Q91", "6D_Q91"}

const (
	// hotBodies distinct requests fit the front table (8192) and the
	// default 64 MiB outcome cache with room to spare.
	hotBodies = 4096
	// hotDraws is the length of the seeded Zipf draw cycle.
	hotDraws = 1 << 20
	// hotCycles is how often the measured phase runs the draw cycle:
	// whole cycles, so every seed issues each body equally often.
	hotCycles = 10
	// hotTracedCycles is the same for the traced pass, and hotTraceEvery
	// how many batches share one traced one.
	hotTracedCycles = 4
	hotTraceEvery   = 16
)

var serveHot = &workloadDef{
	name: "serve_hot", clients: 1, setupReps: 2,
	setup: setupHot,
}

type hotRequest struct {
	spec, strategy string
	qa             int32
	body           []byte
	fresh          []byte // first fresh response: every hit must equal it
	out            outcome
}

type hotInst struct {
	srv   *server.Server
	reqs  []hotRequest
	draws []uint16
	c     *client
}

// hotRequests enumerates the fixed working set of n bodies: body i
// cycles through the six specs and three algorithms, with qa spread
// evenly over the spec's grid.
func hotRequests(n int) ([]hotRequest, error) {
	perCell := (n + len(hotSpecs)*len(paperStrategies) - 1) / (len(hotSpecs) * len(paperStrategies))
	reqs := make([]hotRequest, n)
	for i := range reqs {
		name := hotSpecs[i%len(hotSpecs)]
		strat := paperStrategies[(i/len(hotSpecs))%len(paperStrategies)].name
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		points := gridPoints(spec)
		if points < perCell {
			return nil, fmt.Errorf("%s has %d grid points, need %d distinct", name, points, perCell)
		}
		j := i / (len(hotSpecs) * len(paperStrategies))
		qa := j * points / perCell
		reqs[i] = hotRequest{spec: name, strategy: strat, qa: int32(qa), body: discoverBody(name, strat, qa)}
	}
	return reqs, nil
}

func setupHot(o *runOpts) (instance, error) {
	srv, err := newServer(server.Config{Workloads: hotSpecs})
	if err != nil {
		return nil, err
	}
	reqs, err := hotRequests(o.count(hotBodies, 1))
	if err != nil {
		return nil, err
	}
	h := &hotInst{srv: srv, reqs: reqs, c: newClient(srv.Handler())}
	// Two warm laps, on both cores: the first passes the outcome cache's
	// doorkeeper, the second admits every body and teaches the front
	// table its identity. From the third arrival on, every request is a
	// pure hit.
	const warmClients = 2
	errs := make([]error, warmClients)
	for lap := 0; lap < 2; lap++ {
		closedLoop(srv.Handler(), warmClients, len(h.reqs), func(c *client, ci, pos int) {
			r := &h.reqs[pos]
			code := c.post(r.body)
			out, ok := parseOutcome(c.w.body)
			if (code != http.StatusOK || !ok) && errs[ci] == nil {
				errs[ci] = fmt.Errorf("warm lap %d, %s: status %d: %s", lap, r.body, code, c.w.body)
			}
			if lap == 0 {
				r.fresh, r.out = append([]byte(nil), c.w.body...), out
			}
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The Zipf(1.0) draw cycle is a fixed multiset; the seed orders it.
	fixed := newRNG(fixedSeed).fork(1)
	rank, z := fixed.perm(len(reqs)), newZipf(len(reqs), 1.0)
	h.draws = make([]uint16, o.count(hotDraws, 1))
	for _, i := range newRNG(o.seed).fork(1).perm(len(h.draws)) {
		h.draws[i] = uint16(rank[z.draw(fixed)])
	}
	return h, nil
}

func (h *hotInst) close() {}

func (h *hotInst) measure(o *runOpts) (*measured, error) {
	perLap := hotCycles * len(h.draws) / hotBatch / laps
	before, _ := h.srv.OutcomeCacheStats()
	counts := make([]int, len(h.reqs))
	var mismatched int
	hash := uint64(fnvOffset)
	pos := 0
	c := h.c
	ls := make([]lap, laps)
	for li := range ls {
		o.probe()
		lat := make([]int64, 0, perLap)
		start := time.Now()
		for b := 0; b < perLap; b++ {
			lat = append(lat, int64(timeBatch(hotBatch, func() {
				k := h.draws[pos]
				if pos++; pos == len(h.draws) {
					pos = 0
				}
				r := &h.reqs[k]
				if c.post(r.body) != http.StatusOK || !bytes.Equal(c.w.body, r.fresh) {
					mismatched++
				}
				counts[k]++
				hash = (hash ^ uint64(k)) * fnvPrime
			})))
		}
		ls[li] = lap{ops: perLap * hotBatch, wall: time.Since(start), ns: lat}
	}
	after, _ := h.srv.OutcomeCacheStats()

	// Every hit equalled its fresh body, so the ledger of the run is the
	// fresh outcomes weighted by how often each was drawn.
	refs, err := buildReferences(hotSpecs)
	if err != nil {
		return nil, err
	}
	t := newTally()
	for k, r := range h.reqs {
		if counts[k] == 0 {
			continue
		}
		one := newTally()
		one.op(http.StatusOK, r.out, refs[r.spec].bound(r.strategy), true)
		t.attempted += counts[k]
		t.completed += counts[k] * one.completed
		t.failed += counts[k] * one.failed
		t.violations += counts[k] * one.violations
		t.sumSubOpt += float64(counts[k]) * r.out.subOpt
		if one.completed > 0 && r.out.subOpt > t.maxSubOpt {
			t.maxSubOpt = r.out.subOpt
		}
		t.mix(one.hash)
	}
	t.failed += mismatched
	t.mix(hash)

	m := &measured{tally: t, laps: ls, perSample: hotBatch}
	ratio := hitRatio(before.Hits, before.Misses, after.Hits, after.Misses)
	m.notes = append(m.notes, fmt.Sprintf("outcome-cache hit ratio %.6f, %d hits not byte-equal to their fresh body", ratio, mismatched))
	if ratio < 0.99 {
		m.regime = fmt.Errorf("outcome-cache hit ratio %.4f < 0.99: the working set no longer fits", ratio)
	}
	return m, nil
}

// layers runs the traced pass. A clock read costs a tenth of a hit, and
// a request timed alone runs on cold CPU caches, so here one traced
// "request" is a batch of hotBatch, as in the end-to-end timing: the
// root span covers the batch's handler calls, and the one stage the hit
// path has below the handler, OutcomeCache.Get, is replayed for the same
// keys on the harness's own cache holding the same working set. Both
// spans carry Count = hotBatch and are reported per call.
func (h *hotInst) layers(o *runOpts, tr *tracer) (layerValues, error) {
	lv := layerValues{}
	rp := newReplayer(tr, 0)
	for _, name := range hotSpecs {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		space, err := spec.SpaceWith(1.0, ess.Config{})
		if err != nil {
			return nil, err
		}
		if name == "6D_Q91" {
			lv["ess.build_6d_us"] = us(time.Since(t0))
		}
		t0 = time.Now()
		if _, err := rp.add(name, spec.SQL, space); err != nil {
			return nil, err
		}
		lv["core.compile_us"] += us(time.Since(t0))
	}
	keys := make([]core.OutcomeKey, len(h.reqs))
	for i, r := range h.reqs {
		keys[i] = rp.arts[r.spec].key(r.strategy, r.qa)
		for arrival := 0; arrival < 2; arrival++ { // the second passes the doorkeeper
			rp.cache.Put(keys[i], &core.CachedOutcome{Body: r.fresh})
		}
	}

	before, _ := h.srv.OutcomeCacheStats()
	c, pos, bad := h.c, 0, 0
	batch := make([]core.OutcomeKey, hotBatch)
	serve := func() {
		for i := range batch {
			k := h.draws[pos]
			if pos++; pos == len(h.draws) {
				pos = 0
			}
			batch[i] = keys[k]
			if c.post(h.reqs[k].body) != http.StatusOK || !bytes.Equal(c.w.body, h.reqs[k].fresh) {
				bad++
			}
		}
	}
	pass := alternate(hotTracedCycles*len(h.draws)/hotBatch, 64*hotTraceEvery, func(lo, hi int, traced bool) (int, time.Duration) {
		var excluded time.Duration
		for b := lo; b < hi; b++ {
			if traced && b%hotTraceEvery == 0 {
				_, replayed := tr.served(serve, func() { rp.hits(batch) })
				tr.spans[len(tr.spans)-2].Count = hotBatch // the root precedes its one child
				excluded += replayed
			} else {
				serve()
			}
		}
		return (hi - lo) * hotBatch, excluded
	})
	if bad > 0 {
		return nil, fmt.Errorf("%d hits were not byte-equal to their fresh body", bad)
	}
	after, _ := h.srv.OutcomeCacheStats()
	serveLayers(tr.spans, lv)
	cacheLayers(before, after, lv)
	lv["runtime.alloc_bytes_per_op"] = pass.allocBytesPerOp()
	lv["trace.overhead_ratio"] = pass.overheadRatio()
	return lv, nil
}
