package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

var missSpecs = []string{"3D_Q91", "4D_Q91", "5D_Q91"}

const (
	// missHeuristicSpec also takes the three bound-less strategies.
	missHeuristicSpec = "4D_Q91"
	// missCacheBytes holds about 800 outcomes, a fiftieth of the keys.
	missCacheBytes = 1 << 20
	// missBlock keys are swept twice before the sweep moves on. The
	// outcome cache's doorkeeper admits a key on its second miss within
	// a window of 16384 distinct misses, so a plain cycle over 53k keys
	// would never insert anything; the second pass makes every other
	// request pay Put and an eviction, and still none hits, because the
	// block is ten times the cache.
	missBlock = 8192
	// missCycles is how many times the measured phase sweeps the whole
	// key cycle, each block twice. Whole cycles keep aso and mso
	// independent of the seed's key order (the count is then rounded down
	// to a whole number of ops per lap and client, at most 15 fewer).
	missCycles  = 2
	missClients = 2
)

var serveMiss = &workloadDef{
	name: "serve_miss", clients: missClients, setupReps: 2,
	setup: setupMiss,
}

type missKey struct {
	spec, strategy string
	qa             int32
	body           []byte
}

type missInst struct {
	srv   *server.Server
	keys  []missKey
	order []int32 // seeded permutation of keys: the cycle the warm-up sweeps
	// seq is one measured cycle: the blocks of order, each twice.
	seq []int32
	// first holds each key's first outcome; every later arrival of the
	// key must reproduce it (a miss re-executes, and execution is
	// deterministic).
	first []outcome
}

// missKeys enumerates every stride-th (spec, strategy, qa) of the
// sweep; stride is 1 at full size.
func missKeys(stride int) ([]missKey, error) {
	var keys []missKey
	add := func(name, strategy string) error {
		ref, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for qa := 0; qa < gridPoints(ref); qa += stride {
			keys = append(keys, missKey{spec: name, strategy: strategy, qa: int32(qa), body: discoverBody(name, strategy, qa)})
		}
		return nil
	}
	for _, name := range missSpecs {
		for _, p := range paperStrategies {
			if err := add(name, p.name); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range heuristicStrategies {
		if err := add(missHeuristicSpec, s); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

func setupMiss(o *runOpts) (instance, error) {
	srv, err := newServer(server.Config{Workloads: missSpecs, OutcomeCacheBytes: missCacheBytes})
	if err != nil {
		return nil, err
	}
	keys, err := missKeys(max(1, int(1/o.size)))
	if err != nil {
		return nil, err
	}
	m := &missInst{
		srv: srv, keys: keys, order: newRNG(o.seed).fork(2).perm(len(keys)),
		first: make([]outcome, len(keys)),
	}
	for lo := 0; lo < len(m.order); lo += missBlock {
		block := m.order[lo:min(lo+missBlock, len(m.order))]
		m.seq = append(append(m.seq, block...), block...)
	}
	// One warm cycle, on both cores: fills the alignment planner's
	// decision cache and the strategies' compile-time state, as steady
	// traffic would have, and records each key's fresh outcome.
	errs := make([]error, missClients)
	closedLoop(srv.Handler(), missClients, len(keys), func(c *client, ci, pos int) {
		k := m.order[pos]
		code := c.post(keys[k].body)
		out, ok := parseOutcome(c.w.body)
		if (code != http.StatusOK || !ok) && errs[ci] == nil {
			errs[ci] = fmt.Errorf("warm cycle, %s: status %d: %s", keys[k].body, code, c.w.body)
		}
		m.first[k] = out
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// keyAt maps a position of the measured sequence to its key: blocks of
// missBlock keys of the seeded cycle, each swept twice, over and over.
func (m *missInst) keyAt(pos int) int32 { return m.seq[pos%len(m.seq)] }

func (m *missInst) close() {}

func (m *missInst) measure(o *runOpts) (*measured, error) {
	n := o.count(missCycles*2*len(m.keys), laps*missClients)
	refs, err := buildReferences(missSpecs)
	if err != nil {
		return nil, err
	}
	bounds := make([]float64, len(m.keys))
	for k, key := range m.keys {
		bounds[k] = refs[key.spec].bound(key.strategy)
	}
	before, _ := m.srv.OutcomeCacheStats()
	tallies := make([]*tally, missClients)
	for ci := range tallies {
		tallies[ci] = newTally()
	}
	ls := make([]lap, laps)
	for li := range ls {
		o.probe()
		// One preallocated slice per client, written by index: appending
		// would rewrite the adjacent slice headers from both cores.
		lats := make([][]int64, missClients)
		for ci := range lats {
			lats[ci] = make([]int64, n/laps/missClients)
		}
		lo := li * (n / laps)
		wall := closedLoop(m.srv.Handler(), missClients, n/laps, func(c *client, ci, i int) {
			k := m.keyAt(lo + i)
			t0 := time.Now()
			code := c.post(m.keys[k].body)
			lats[ci][i/missClients] = int64(time.Since(t0))
			out, ok := parseOutcome(c.w.body)
			if code != http.StatusOK || !ok || out != m.first[k] {
				tallies[ci].fail()
				return
			}
			tallies[ci].op(code, out, bounds[k], true)
		})
		ls[li] = lap{ops: n / laps, wall: wall}
		for _, l := range lats {
			ls[li].ns = append(ls[li].ns, l...)
		}
	}
	after, _ := m.srv.OutcomeCacheStats()

	t := newTally()
	for _, ct := range tallies {
		t.merge(ct)
	}
	res := &measured{tally: t, laps: ls, perSample: 1}
	ratio := hitRatio(before.Hits, before.Misses, after.Hits, after.Misses)
	res.notes = append(res.notes, fmt.Sprintf("outcome-cache hit ratio %.6f over %d keys (%.1f cycles), %d evictions",
		ratio, len(m.keys), float64(n)/float64(len(m.keys)), after.Evictions-before.Evictions))
	if ratio > 0.01 && o.size >= 1 {
		res.regime = fmt.Errorf("outcome-cache hit ratio %.4f > 0.01: the sweep no longer misses", ratio)
	}
	return res, nil
}

// missTraceEvery is how many of client 0's requests share one traced
// one in a traced chunk.
const missTraceEvery = 32

// layers runs one doubled key cycle in alternating chunks with both
// clients; client 0 traces. The replay artifacts are warmed over the
// whole key set first, as the server's were by the set-up cycle:
// without that the alignment planner's decision cache would be cold on
// every sampled request and AlignedBound would read several times too
// slow.
func (m *missInst) layers(o *runOpts, tr *tracer) (layerValues, error) {
	lv := layerValues{}
	rp := newReplayer(tr, missCacheBytes)
	bounds := make([]float64, len(m.keys))
	for _, name := range missSpecs {
		ref, err := buildReference(name)
		if err != nil {
			return nil, err
		}
		art, err := rp.add(name, ref.spec.SQL, ref.space)
		if err != nil {
			return nil, err
		}
		if name == missHeuristicSpec {
			t0 := time.Now()
			for _, s := range heuristicStrategies {
				if err := art.compiled.PrepareStrategy(s); err != nil {
					return nil, err
				}
			}
			lv["core.prepare_strategy_us"] = us(time.Since(t0))
		}
		for k, key := range m.keys {
			if key.spec == name {
				bounds[k] = ref.bound(key.strategy)
			}
		}
	}
	var warm sync.WaitGroup
	for ci := 0; ci < missClients; ci++ {
		warm.Add(1)
		go func(ci int) {
			defer warm.Done()
			for k := ci; k < len(m.keys); k += missClients {
				run := rp.arts[m.keys[k].spec].compiled.AcquireRun()
				run.DiscoverStrategy(m.keys[k].strategy, m.keys[k].qa)
				core.ReleaseRun(run)
			}
		}(ci)
	}
	warm.Wait()

	before, _ := m.srv.OutcomeCacheStats()
	var violations atomic.Int64
	errs := make([]error, missClients)
	n := o.count(2*len(m.keys), missClients)
	stats := alternate(n, missBlock/2, func(lo, hi int, traced bool) (int, time.Duration) {
		var excluded time.Duration // client 0's replay time; it paces the chunk
		closedLoop(m.srv.Handler(), missClients, hi-lo, func(c *client, ci, i int) {
			k := m.keyAt(lo + i)
			body := m.keys[k].body
			if traced && ci == 0 && (i/missClients)%missTraceEvery == 0 {
				_, replayed := tr.served(func() { c.post(body) }, func() {
					if err := rp.request(body, c.w.body); err != nil && errs[ci] == nil {
						errs[ci] = err
					}
				})
				excluded += replayed
			} else {
				c.post(body)
			}
			out, ok := parseOutcome(c.w.body)
			if (c.w.code != http.StatusOK || !ok || out != m.first[k]) && errs[ci] == nil {
				errs[ci] = fmt.Errorf("%s: status %d: %s", body, c.w.code, c.w.body)
			}
			if violates(out.subOpt, bounds[k]) {
				violations.Add(1)
			}
		})
		return hi - lo, excluded
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	after, _ := m.srv.OutcomeCacheStats()
	serveLayers(tr.spans, lv)
	cacheLayers(before, after, lv)
	lv["core.bound_violations"] = float64(violations.Load())
	lv["runtime.alloc_bytes_per_op"] = stats.allocBytesPerOp()
	lv["trace.overhead_ratio"] = stats.overheadRatio()
	return lv, nil
}
