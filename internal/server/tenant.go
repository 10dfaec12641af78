package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/workload"
)

// This file is the multi-tenant arm of the server: workloads beyond
// the pinned -workloads set are admitted on demand, their artifacts
// compiled at most once per signature (the flightGroup coalesces the
// herd) and held in the byte-budgeted signature-keyed ArtifactCache.
// Pinned workloads keep their eager build-at-startup lifecycle and are
// never evicted; on-demand tenants live and die by cache pressure.

// signatureFor computes a workload's full artifact signature: the
// canonical signature of its SQL text extended with the compile-time
// inputs that shape the artifact — EPP set, grid resolution, catalog
// scale. The extension matters: the Q91 dimensionality family shares
// one SQL body across five distinct artifacts, so the raw SQL
// signature alone would alias them in the cache and on the shard ring.
func (s *Server) signatureFor(spec workload.Spec) (query.Signature, error) {
	sig, err := query.Sign(spec.SQL)
	if err != nil {
		return query.Signature{}, err
	}
	res := s.cfg.Res
	if res <= 0 {
		res = spec.Res
	}
	parts := make([]string, 0, len(spec.EPPs)+2)
	for _, e := range spec.EPPs {
		parts = append(parts, "epp:"+e[0]+"="+e[1])
	}
	parts = append(parts,
		fmt.Sprintf("res:%d", res),
		fmt.Sprintf("scale:%g", s.cfg.Scale))
	return sig.Extend(parts...), nil
}

// buildSigIndex maps the pure-SQL signature of every registered
// workload spec to its spec name(s), so requests may identify their
// workload by SQL text alone. Multiple names per hash are expected
// (the Q91 family) — resolution then needs the workload field.
func buildSigIndex() map[uint64][]string {
	idx := make(map[uint64][]string)
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name)
		if err != nil {
			continue
		}
		sig, err := query.Sign(spec.SQL)
		if err != nil {
			continue // a spec whose SQL we cannot sign is not SQL-addressable
		}
		idx[sig.Hash] = append(idx[sig.Hash], name)
	}
	for _, names := range idx {
		sort.Strings(names)
	}
	return idx
}

// getWorkload returns the state for a known workload name under the
// read lock.
func (s *Server) getWorkload(name string) (*workloadState, bool) {
	s.wmu.RLock()
	defer s.wmu.RUnlock()
	ws, ok := s.workloads[name]
	return ws, ok
}

// snapshotWorkloads returns the current workload states: pinned first
// in configuration order, then on-demand tenants sorted by name.
func (s *Server) snapshotWorkloads() []*workloadState {
	s.wmu.RLock()
	defer s.wmu.RUnlock()
	out := make([]*workloadState, 0, len(s.workloads))
	for _, name := range s.order {
		out = append(out, s.workloads[name])
	}
	extra := make([]string, 0)
	for name, ws := range s.workloads {
		if ws.onDemand {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, s.workloads[name])
	}
	return out
}

// resolveWorkload maps a request onto a workload state, creating an
// on-demand tenant when the name (or SQL signature) identifies a
// registered spec that is not pinned. When the request carries SQL, its
// canonical signature picks the spec: an unknown signature is 404, an
// ambiguous one (several specs share the SQL body) is a 400 naming the
// candidates unless the workload field disambiguates.
func (s *Server) resolveWorkload(req *DiscoverRequest) (*workloadState, *rejection) {
	name := req.Workload
	if req.SQL != "" {
		sig, err := query.Sign(req.SQL)
		if err != nil {
			return nil, reject(http.StatusBadRequest, KindBadRequest, "unsignable sql: "+err.Error(), 0)
		}
		cands := s.sigIdx[sig.Hash]
		switch {
		case len(cands) == 0:
			return nil, reject(http.StatusNotFound, KindNotFound,
				fmt.Sprintf("no workload matches query signature %s", sig), 0)
		case name != "":
			if !slices.Contains(cands, name) {
				return nil, reject(http.StatusBadRequest, KindBadRequest,
					fmt.Sprintf("sql signature %s does not match workload %q (candidates: %s)",
						sig, name, strings.Join(cands, ", ")), 0)
			}
		case len(cands) == 1:
			name = cands[0]
		default:
			return nil, reject(http.StatusBadRequest, KindBadRequest,
				fmt.Sprintf("query signature %s is ambiguous (candidates: %s); set workload to disambiguate",
					sig, strings.Join(cands, ", ")), 0)
		}
		req.Workload = name
	}
	if name == "" {
		return nil, reject(http.StatusBadRequest, KindBadRequest, "workload or sql required", 0)
	}
	if ws, ok := s.getWorkload(name); ok {
		return ws, nil
	}
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, reject(http.StatusNotFound, KindNotFound, fmt.Sprintf("unknown workload %q", name), 0)
	}
	sig, err := s.signatureFor(spec)
	if err != nil {
		return nil, reject(http.StatusBadRequest, KindBadRequest, fmt.Sprintf("workload %s: %v", name, err), 0)
	}
	s.wmu.Lock()
	ws, ok := s.workloads[name]
	if !ok {
		ws = &workloadState{
			name: name, spec: spec, onDemand: true, sigKey: sig.Hash,
			breaker: newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown, s.cfg.Now),
			ready:   closedChan(),
		}
		s.workloads[name] = ws
	}
	s.wmu.Unlock()
	return ws, nil
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// Compile-attempt policy for coalesced on-demand builds: a waiter (or
// would-be leader) whose flight ends in a transient fault retries up
// to compileAttempts times, sleeping a capped exponential backoff with
// deterministic jitter between attempts so the re-herd is staggered,
// not synchronized.
const (
	compileAttempts    = 4
	compileBackoffBase = 5 * time.Millisecond
	compileBackoffMax  = 80 * time.Millisecond
)

// artifactFor returns the on-demand tenant's compiled artifact,
// consulting the signature-keyed cache first and coalescing concurrent
// compiles of the same signature into one flight. The injector drives
// two chaos sites: SiteCacheEvict evicts the entry before lookup
// (simulated memory pressure — the request sees a miss), and
// SiteCoalesceLeader faults the flight leader before it compiles.
// Leader faults do not poison waiters: the flight's error is delivered
// once, the flight is gone, and every affected request retries with
// jittered exponential backoff until a later leader succeeds or the
// attempt budget is spent.
func (s *Server) artifactFor(ctx context.Context, ws *workloadState, in *faultinject.Injector) (*core.Compiled, error) {
	key := ws.sigKey
	if in.Trip(faultinject.SiteCacheEvict) {
		if s.cache.Evict(key) {
			s.metrics.chaosEvicts.Add(1)
		}
	}
	if art, ok := s.cache.Get(key); ok {
		return art, nil
	}
	var lastErr error
	for attempt := 0; attempt < compileAttempts; attempt++ {
		if attempt > 0 {
			if err := s.backoff(ctx, in, attempt); err != nil {
				return nil, err
			}
			// A concurrent flight may have filled the cache while we slept.
			if art, ok := s.cache.Get(key); ok {
				return art, nil
			}
		}
		art, err, leader := s.flights.Do(ctx, key, func() (*core.Compiled, error) {
			if ferr := in.Check(faultinject.SiteCoalesceLeader); ferr != nil {
				s.metrics.leaderFaults.Add(1)
				return nil, ferr
			}
			c, cerr := s.compileTenant(ws)
			if cerr != nil {
				return nil, cerr
			}
			s.cache.Put(key, c, core.EstimateArtifactBytes(c))
			s.countCompile(ws.name)
			return c, nil
		})
		if !leader {
			s.metrics.coalesceWaits.Add(1)
		}
		if err == nil {
			return art, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !faultinject.IsTransient(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("compile of %s: retries exhausted: %w", ws.name, lastErr)
}

// backoff sleeps the capped exponential backoff for the attempt, with
// deterministic jitter from the request's fault substream (so even the
// retry timing of a chaos run replays from its seed), honoring ctx.
func (s *Server) backoff(ctx context.Context, in *faultinject.Injector, attempt int) error {
	d := compileBackoffBase << (attempt - 1)
	if d > compileBackoffMax {
		d = compileBackoffMax
	}
	// Jitter in [0.5, 1.0]x: staggers waiters without collapsing the
	// backoff to zero. A nil injector (chaos disarmed) jitters to 0.5x.
	sleep := time.Duration(float64(d) * (0.5 + in.Jitter(attempt)/2))
	t := time.NewTimer(sleep)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// compileTenant builds an on-demand tenant's artifact. On-demand
// tenants are always eager: the lazy mode's refinement persistence is
// a pinned-workload feature, and an evictable artifact must be
// self-contained.
func (s *Server) compileTenant(ws *workloadState) (*core.Compiled, error) {
	sp, err := ws.spec.SpaceWith(s.cfg.Scale, ess.Config{Res: s.cfg.Res})
	if err != nil {
		return nil, err
	}
	return core.Compile(sp, core.CompileOptions{})
}

// countCompile records one completed (successful) compile for the
// workload. Coalesced herds compile once; the counter is how tests —
// and operators — verify that.
func (s *Server) countCompile(name string) {
	c, _ := s.compiles.LoadOrStore(name, &atomic.Int64{})
	c.(*atomic.Int64).Add(1)
	s.metrics.compiles.Add(1)
}

// CompileCount reports how many artifact compiles the named workload
// has paid on this server (pinned startup builds are not counted; the
// counter tracks the on-demand/coalesced path).
func (s *Server) CompileCount(name string) int64 {
	c, ok := s.compiles.Load(name)
	if !ok {
		return 0
	}
	return c.(*atomic.Int64).Load()
}

// CacheStats exposes the artifact cache counters (tests and the
// /metrics endpoint read the same numbers).
func (s *Server) CacheStats() core.CacheStats { return s.cache.Stats() }

// OutcomeCacheStats exposes the deterministic outcome cache counters;
// ok is false when the cache is disabled (OutcomeCacheBytes < 0).
func (s *Server) OutcomeCacheStats() (core.CacheStats, bool) {
	if s.outcomes == nil {
		return core.CacheStats{}, false
	}
	return s.outcomes.Stats(), true
}
