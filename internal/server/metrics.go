package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ess"
)

// metrics holds the server's observability counters, exposed on GET
// /metrics in the Prometheus text exposition format with no external
// dependencies. The substrate already tracks every number: admission
// queue depth, in-flight discovery work, per-workload breaker state,
// and per-strategy request counts (the counter map is prebuilt from the
// strategy registry at startup, so recording is a lock-free add).
type metrics struct {
	inflight atomic.Int64
	// execWorkers sums the intra-query exec-worker reservations of
	// discoveries currently executing: each in-flight discovery holds its
	// clamped exec_workers count for the duration of the run. The gauge
	// is an operator's view of how much engine parallelism the service
	// has promised at this instant.
	execWorkers atomic.Int64
	// byStrategy counts discovery/MSO requests per routed strategy.
	// Requests that fail validation before routing are not counted.
	byStrategy map[string]*atomic.Int64
	// refineObs counts spill-step selectivity observations fed back into
	// lazy surfaces; refinedPoints counts point values those refinements
	// actually changed. Both stay zero in eager mode.
	refineObs     atomic.Int64
	refinedPoints atomic.Int64

	// compiles counts completed on-demand artifact compiles;
	// coalesceWaits counts requests that joined an in-flight compile
	// instead of starting one (the herd savings); leaderFaults counts
	// injected coalesce-leader faults; chaosEvicts counts injected
	// cache evictions. forwards/failovers are the shard-out proxy's
	// request accounting.
	compiles      atomic.Int64
	coalesceWaits atomic.Int64
	leaderFaults  atomic.Int64
	chaosEvicts   atomic.Int64
	forwards      atomic.Int64
	failovers     atomic.Int64

	// encodeErrors counts response-encoding and response-write
	// failures that writeJSON previously discarded silently;
	// outcomeChaosEvicts counts injected outcome-cache evictions (the
	// outcome.evict chaos site).
	encodeErrors       atomic.Int64
	outcomeChaosEvicts atomic.Int64
}

func newMetrics() *metrics {
	m := &metrics{byStrategy: make(map[string]*atomic.Int64)}
	for _, name := range core.Strategies() {
		m.byStrategy[name] = &atomic.Int64{}
	}
	return m
}

// countRequest records one request routed to the named strategy.
// Unknown names (impossible after registry validation) are dropped
// rather than grown, keeping the map read-only after construction —
// that is what makes the hot path lock-free.
func (m *metrics) countRequest(strategy string) {
	if c, ok := m.byStrategy[strategy]; ok {
		c.Add(1)
	}
}

// track brackets one in-flight request; call the returned func on exit.
func (m *metrics) track() func() {
	m.inflight.Add(1)
	return func() { m.inflight.Add(-1) }
}

// trackWorkers brackets one discovery's exec-worker reservation; call
// the returned func when the discovery finishes.
func (m *metrics) trackWorkers(n int) func() {
	m.execWorkers.Add(int64(n))
	return func() { m.execWorkers.Add(int64(-n)) }
}

// sanitizeLabel escapes a Prometheus label value per the text
// exposition format: backslash, double quote, and newline are the only
// characters with escape sequences, and everything else passes through
// verbatim. (Go's %q is close but not equal — it escapes tabs and
// non-printables with sequences the exposition format does not define,
// so a workload name with a tab would produce an unparseable series.)
func sanitizeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// breakerGauge maps breaker states onto a stable numeric encoding for
// the rqp_breaker_state gauge.
func breakerGauge(state string) int {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	default: // closed
		return 0
	}
}

// sample is one exposition line of a metric family: an optional
// pre-rendered label pair (see label) and the value.
type sample struct {
	labels string
	value  int64
}

// val is an unlabelled sample.
func val[T int | int64 | uint64](v T) sample { return sample{value: int64(v)} }

// label renders one escaped label pair for a sample.
func label(key, value string) string { return key + `="` + sanitizeLabel(value) + `"` }

// writeFamily emits one metric family in the text exposition format:
// its HELP and TYPE lines, then every sample, as the single contiguous
// group the format requires of all lines for a given metric.
func writeFamily(w io.Writer, name, help, typ string, samples ...sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, sm := range samples {
		if sm.labels == "" {
			fmt.Fprintf(w, "%s %d\n", name, sm.value)
		} else {
			fmt.Fprintf(w, "%s{%s} %d\n", name, sm.labels, sm.value)
		}
	}
}

// handleMetrics serves the Prometheus text format (version 0.0.4),
// family by family.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := s.metrics
	states := s.snapshotWorkloads()

	writeFamily(w, "rqp_queue_depth", "Requests waiting in the bounded admission queue.", "gauge", val(s.queued.Load()))
	writeFamily(w, "rqp_inflight", "Discovery and MSO requests currently executing.", "gauge", val(m.inflight.Load()))
	writeFamily(w, "rqp_exec_workers", "Intra-query exec workers reserved by in-flight discoveries.", "gauge", val(m.execWorkers.Load()))
	writeFamily(w, "rqp_exec_workers_max", "Per-request exec_workers cap (Config.MaxExecWorkers).", "gauge", val(s.cfg.MaxExecWorkers))

	breakers := make([]sample, len(states))
	for i, ws := range states {
		breakers[i] = sample{label("workload", ws.name), int64(breakerGauge(ws.breaker.State()))}
	}
	writeFamily(w, "rqp_breaker_state", "Circuit breaker state per workload (0=closed, 1=open, 2=half-open).", "gauge", breakers...)

	// Both caches are one LRU type with one stats type: one block each.
	type cacheBlock struct {
		prefix, noun string
		stats        core.CacheStats
	}
	caches := []cacheBlock{{"rqp_cache", "compile", s.cache.Stats()}}
	if s.outcomes != nil {
		caches = append(caches, cacheBlock{"rqp_outcome_cache", "outcome", s.outcomes.Stats()})
	}
	for _, c := range caches {
		st := c.stats
		writeFamily(w, c.prefix+"_entries", "Entries resident in the "+c.noun+" cache.", "gauge", val(st.Entries))
		writeFamily(w, c.prefix+"_bytes", "Estimated bytes resident in the "+c.noun+" cache.", "gauge", val(st.Bytes))
		writeFamily(w, c.prefix+"_budget_bytes", "Byte budget of the "+c.noun+" cache.", "gauge", val(st.Budget))
		writeFamily(w, c.prefix+"_hits_total", "Lookups the "+c.noun+" cache served.", "counter", val(st.Hits))
		writeFamily(w, c.prefix+"_misses_total", "Lookups the "+c.noun+" cache missed.", "counter", val(st.Misses))
		writeFamily(w, c.prefix+"_evictions_total", "Evictions from the "+c.noun+" cache (budget pressure and injected).", "counter", val(st.Evictions))
		writeFamily(w, c.prefix+"_inserts_total", "Entries installed in the "+c.noun+" cache.", "counter", val(st.Inserts))
	}
	if s.outcomes != nil {
		writeFamily(w, "rqp_outcome_chaos_evicts_total", "Injected outcome-cache evictions (outcome.evict site).", "counter", val(m.outcomeChaosEvicts.Load()))
	}

	writeFamily(w, "rqp_encode_errors_total", "Response encode/write failures (previously discarded silently).", "counter", val(m.encodeErrors.Load()))
	writeFamily(w, "rqp_compiles_total", "On-demand artifact compiles completed.", "counter", val(m.compiles.Load()))
	writeFamily(w, "rqp_coalesce_waits_total", "Requests that joined an in-flight compile instead of starting one.", "counter", val(m.coalesceWaits.Load()))
	writeFamily(w, "rqp_coalesce_leader_faults_total", "Injected compile-flight leader faults.", "counter", val(m.leaderFaults.Load()))

	if s.ring != nil {
		up := s.peers.snapshotUp(s.ring.peers)
		peers := make([]sample, len(s.ring.peers))
		for i, peer := range s.ring.peers {
			peers[i] = sample{labels: label("peer", peer)}
			if up[peer] {
				peers[i].value = 1
			}
		}
		writeFamily(w, "rqp_peer_up", "Last known liveness per shard-out peer (1=up).", "gauge", peers...)
		writeFamily(w, "rqp_forwards_total", "Requests proxied to their signature's owner replica.", "counter", val(m.forwards.Load()))
		writeFamily(w, "rqp_failovers_total", "Owner replicas skipped as down during request routing.", "counter", val(m.failovers.Load()))
	}

	writeFamily(w, "rqp_refine_observations_total", "Spill selectivity observations fed into lazy ESS surfaces.", "counter", val(m.refineObs.Load()))
	writeFamily(w, "rqp_refined_points_total", "Lazy ESS point values changed by online refinement.", "counter", val(m.refinedPoints.Load()))

	// Demand-driven sources expose their work profile per workload; the
	// section is empty when every workload is eager. Every compiled
	// pinned workload reports its AlignedBound planner's DP runs.
	var lazyLabels []string
	var lazyProfs []ess.BuildProfile
	var plannerDP []sample
	for _, ws := range states {
		ws.mu.RLock()
		lz, c := ws.lazy, ws.compiled
		ws.mu.RUnlock()
		if lz != nil {
			lazyLabels = append(lazyLabels, label("workload", ws.name))
			lazyProfs = append(lazyProfs, lz.Profile())
		}
		if c != nil {
			plannerDP = append(plannerDP, sample{label("workload", ws.name), c.Planner().DPRuns()})
		}
	}
	writeFamily(w, "rqp_planner_dp_runs_total", "Optimizer DP runs of the AlignedBound planner's probes, per pinned workload.", "counter", plannerDP...)
	if len(lazyProfs) > 0 {
		per := func(get func(ess.BuildProfile) int64) []sample {
			samples := make([]sample, len(lazyProfs))
			for i, p := range lazyProfs {
				samples[i] = sample{lazyLabels[i], get(p)}
			}
			return samples
		}
		writeFamily(w, "rqp_lazy_settled_points", "Grid points settled by the demand-driven ESS, per workload.", "gauge", per(func(p ess.BuildProfile) int64 { return int64(p.Settled) })...)
		writeFamily(w, "rqp_lazy_contour_hits_total", "Settled-point cache hits on the lazy ESS point accessors.", "counter", per(func(p ess.BuildProfile) int64 { return p.Hits })...)
		writeFamily(w, "rqp_lazy_contour_misses_total", "Points the lazy ESS settled on first touch.", "counter", per(func(p ess.BuildProfile) int64 { return p.Misses })...)
		writeFamily(w, "rqp_lazy_contours_built_total", "Contours the lazy ESS built and memoized, one per contour of an epoch.", "counter", per(func(p ess.BuildProfile) int64 { return p.ContoursBuilt })...)
		writeFamily(w, "rqp_lazy_contour_memo_hits_total", "Contour lookups the lazy ESS served from its contour memo.", "counter", per(func(p ess.BuildProfile) int64 { return p.ContourHits })...)
		writeFamily(w, "rqp_lazy_contour_memo_misses_total", "Contour lookups that found no memoized contour and built one.", "counter", per(func(p ess.BuildProfile) int64 { return p.ContourMisses })...)
		writeFamily(w, "rqp_lazy_refinement_rounds_total", "Online refinement rounds applied to the lazy ESS surface.", "counter", per(func(p ess.BuildProfile) int64 { return p.Refinements })...)
		writeFamily(w, "rqp_lazy_epoch", "Current refinement epoch of the lazy ESS surface.", "gauge", per(func(p ess.BuildProfile) int64 { return int64(p.Epoch) })...)
		writeFamily(w, "rqp_lazy_delta_appends_total", "Refinement deltas durably appended to the lazy snapshot.", "counter", per(func(p ess.BuildProfile) int64 { return p.DeltaAppends })...)
		writeFamily(w, "rqp_lazy_delta_points_total", "Point values carried by appended refinement deltas.", "counter", per(func(p ess.BuildProfile) int64 { return p.DeltaPoints })...)
		writeFamily(w, "rqp_lazy_delta_bytes_total", "Framed bytes of appended refinement deltas.", "counter", per(func(p ess.BuildProfile) int64 { return p.DeltaBytes })...)
	}

	names := make([]string, 0, len(m.byStrategy))
	for name := range m.byStrategy {
		names = append(names, name)
	}
	sort.Strings(names)
	requests := make([]sample, len(names))
	for i, name := range names {
		requests[i] = sample{label("strategy", name), m.byStrategy[name].Load()}
	}
	writeFamily(w, "rqp_requests_total", "Discovery and MSO requests routed, per strategy.", "counter", requests...)
}
