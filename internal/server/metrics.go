package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
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

// handleMetrics serves the Prometheus text format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintln(w, "# HELP rqp_queue_depth Requests waiting in the bounded admission queue.")
	fmt.Fprintln(w, "# TYPE rqp_queue_depth gauge")
	fmt.Fprintf(w, "rqp_queue_depth %d\n", s.queued.Load())

	fmt.Fprintln(w, "# HELP rqp_inflight Discovery and MSO requests currently executing.")
	fmt.Fprintln(w, "# TYPE rqp_inflight gauge")
	fmt.Fprintf(w, "rqp_inflight %d\n", s.metrics.inflight.Load())

	fmt.Fprintln(w, "# HELP rqp_exec_workers Intra-query exec workers reserved by in-flight discoveries.")
	fmt.Fprintln(w, "# TYPE rqp_exec_workers gauge")
	fmt.Fprintf(w, "rqp_exec_workers %d\n", s.metrics.execWorkers.Load())

	fmt.Fprintln(w, "# HELP rqp_exec_workers_max Per-request exec_workers cap (Config.MaxExecWorkers).")
	fmt.Fprintln(w, "# TYPE rqp_exec_workers_max gauge")
	fmt.Fprintf(w, "rqp_exec_workers_max %d\n", s.cfg.MaxExecWorkers)

	fmt.Fprintln(w, "# HELP rqp_breaker_state Circuit breaker state per workload (0=closed, 1=open, 2=half-open).")
	fmt.Fprintln(w, "# TYPE rqp_breaker_state gauge")
	states := s.snapshotWorkloads()
	for _, ws := range states {
		fmt.Fprintf(w, "rqp_breaker_state{workload=\"%s\"} %d\n",
			sanitizeLabel(ws.name), breakerGauge(ws.breaker.State()))
	}

	cs := s.cache.Stats()
	fmt.Fprintln(w, "# HELP rqp_cache_entries Artifacts resident in the signature-keyed compile cache.")
	fmt.Fprintln(w, "# TYPE rqp_cache_entries gauge")
	fmt.Fprintf(w, "rqp_cache_entries %d\n", cs.Entries)
	fmt.Fprintln(w, "# HELP rqp_cache_bytes Estimated bytes resident in the compile cache.")
	fmt.Fprintln(w, "# TYPE rqp_cache_bytes gauge")
	fmt.Fprintf(w, "rqp_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintln(w, "# HELP rqp_cache_budget_bytes Compile cache byte budget.")
	fmt.Fprintln(w, "# TYPE rqp_cache_budget_bytes gauge")
	fmt.Fprintf(w, "rqp_cache_budget_bytes %d\n", cs.Budget)
	fmt.Fprintln(w, "# HELP rqp_cache_hits_total Compile cache hits.")
	fmt.Fprintln(w, "# TYPE rqp_cache_hits_total counter")
	fmt.Fprintf(w, "rqp_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintln(w, "# HELP rqp_cache_misses_total Compile cache misses.")
	fmt.Fprintln(w, "# TYPE rqp_cache_misses_total counter")
	fmt.Fprintf(w, "rqp_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintln(w, "# HELP rqp_cache_evictions_total Compile cache evictions (budget pressure and injected).")
	fmt.Fprintln(w, "# TYPE rqp_cache_evictions_total counter")
	fmt.Fprintf(w, "rqp_cache_evictions_total %d\n", cs.Evictions)

	if s.outcomes != nil {
		os := s.outcomes.Stats()
		fmt.Fprintln(w, "# HELP rqp_outcome_cache_entries Outcomes resident in the deterministic outcome cache.")
		fmt.Fprintln(w, "# TYPE rqp_outcome_cache_entries gauge")
		fmt.Fprintf(w, "rqp_outcome_cache_entries %d\n", os.Entries)
		fmt.Fprintln(w, "# HELP rqp_outcome_cache_bytes Estimated bytes resident in the outcome cache.")
		fmt.Fprintln(w, "# TYPE rqp_outcome_cache_bytes gauge")
		fmt.Fprintf(w, "rqp_outcome_cache_bytes %d\n", os.Bytes)
		fmt.Fprintln(w, "# HELP rqp_outcome_cache_budget_bytes Outcome cache byte budget.")
		fmt.Fprintln(w, "# TYPE rqp_outcome_cache_budget_bytes gauge")
		fmt.Fprintf(w, "rqp_outcome_cache_budget_bytes %d\n", os.Budget)
		fmt.Fprintln(w, "# HELP rqp_outcome_cache_hits_total Discover requests served from cached outcome bytes.")
		fmt.Fprintln(w, "# TYPE rqp_outcome_cache_hits_total counter")
		fmt.Fprintf(w, "rqp_outcome_cache_hits_total %d\n", os.Hits)
		fmt.Fprintln(w, "# HELP rqp_outcome_cache_misses_total Discover requests that executed because no cached outcome matched.")
		fmt.Fprintln(w, "# TYPE rqp_outcome_cache_misses_total counter")
		fmt.Fprintf(w, "rqp_outcome_cache_misses_total %d\n", os.Misses)
		fmt.Fprintln(w, "# HELP rqp_outcome_cache_evictions_total Outcome cache evictions (budget pressure, epoch churn, and injected).")
		fmt.Fprintln(w, "# TYPE rqp_outcome_cache_evictions_total counter")
		fmt.Fprintf(w, "rqp_outcome_cache_evictions_total %d\n", os.Evictions)
		fmt.Fprintln(w, "# HELP rqp_outcome_cache_inserts_total Outcomes installed in the cache.")
		fmt.Fprintln(w, "# TYPE rqp_outcome_cache_inserts_total counter")
		fmt.Fprintf(w, "rqp_outcome_cache_inserts_total %d\n", os.Inserts)
		fmt.Fprintln(w, "# HELP rqp_outcome_chaos_evicts_total Injected outcome-cache evictions (outcome.evict site).")
		fmt.Fprintln(w, "# TYPE rqp_outcome_chaos_evicts_total counter")
		fmt.Fprintf(w, "rqp_outcome_chaos_evicts_total %d\n", s.metrics.outcomeChaosEvicts.Load())
	}

	fmt.Fprintln(w, "# HELP rqp_encode_errors_total Response encode/write failures (previously discarded silently).")
	fmt.Fprintln(w, "# TYPE rqp_encode_errors_total counter")
	fmt.Fprintf(w, "rqp_encode_errors_total %d\n", s.metrics.encodeErrors.Load())

	fmt.Fprintln(w, "# HELP rqp_compiles_total On-demand artifact compiles completed.")
	fmt.Fprintln(w, "# TYPE rqp_compiles_total counter")
	fmt.Fprintf(w, "rqp_compiles_total %d\n", s.metrics.compiles.Load())
	fmt.Fprintln(w, "# HELP rqp_coalesce_waits_total Requests that joined an in-flight compile instead of starting one.")
	fmt.Fprintln(w, "# TYPE rqp_coalesce_waits_total counter")
	fmt.Fprintf(w, "rqp_coalesce_waits_total %d\n", s.metrics.coalesceWaits.Load())
	fmt.Fprintln(w, "# HELP rqp_coalesce_leader_faults_total Injected compile-flight leader faults.")
	fmt.Fprintln(w, "# TYPE rqp_coalesce_leader_faults_total counter")
	fmt.Fprintf(w, "rqp_coalesce_leader_faults_total %d\n", s.metrics.leaderFaults.Load())

	if s.ring != nil {
		fmt.Fprintln(w, "# HELP rqp_peer_up Last known liveness per shard-out peer (1=up).")
		fmt.Fprintln(w, "# TYPE rqp_peer_up gauge")
		up := s.peers.snapshotUp(s.ring.peers)
		for _, peer := range s.ring.peers {
			v := 0
			if up[peer] {
				v = 1
			}
			fmt.Fprintf(w, "rqp_peer_up{peer=\"%s\"} %d\n", sanitizeLabel(peer), v)
		}
		fmt.Fprintln(w, "# HELP rqp_forwards_total Requests proxied to their signature's owner replica.")
		fmt.Fprintln(w, "# TYPE rqp_forwards_total counter")
		fmt.Fprintf(w, "rqp_forwards_total %d\n", s.metrics.forwards.Load())
		fmt.Fprintln(w, "# HELP rqp_failovers_total Owner replicas skipped as down during request routing.")
		fmt.Fprintln(w, "# TYPE rqp_failovers_total counter")
		fmt.Fprintf(w, "rqp_failovers_total %d\n", s.metrics.failovers.Load())
	}

	fmt.Fprintln(w, "# HELP rqp_refine_observations_total Spill selectivity observations fed into lazy ESS surfaces.")
	fmt.Fprintln(w, "# TYPE rqp_refine_observations_total counter")
	fmt.Fprintf(w, "rqp_refine_observations_total %d\n", s.metrics.refineObs.Load())

	fmt.Fprintln(w, "# HELP rqp_refined_points_total Lazy ESS point values changed by online refinement.")
	fmt.Fprintln(w, "# TYPE rqp_refined_points_total counter")
	fmt.Fprintf(w, "rqp_refined_points_total %d\n", s.metrics.refinedPoints.Load())

	// Demand-driven sources expose their work profile per workload; the
	// section is empty when every workload is eager.
	lazyHeader := false
	for _, ws := range states {
		ws.mu.RLock()
		lz := ws.lazy
		ws.mu.RUnlock()
		if lz == nil {
			continue
		}
		if !lazyHeader {
			lazyHeader = true
			fmt.Fprintln(w, "# HELP rqp_lazy_settled_points Grid points settled by the demand-driven ESS, per workload.")
			fmt.Fprintln(w, "# TYPE rqp_lazy_settled_points gauge")
		}
		name := sanitizeLabel(ws.name)
		prof := lz.Profile()
		fmt.Fprintf(w, "rqp_lazy_settled_points{workload=\"%s\"} %d\n", name, prof.Settled)
		fmt.Fprintf(w, "rqp_lazy_contour_hits_total{workload=\"%s\"} %d\n", name, prof.Hits)
		fmt.Fprintf(w, "rqp_lazy_contour_misses_total{workload=\"%s\"} %d\n", name, prof.Misses)
		fmt.Fprintf(w, "rqp_lazy_refinement_rounds_total{workload=\"%s\"} %d\n", name, prof.Refinements)
		fmt.Fprintf(w, "rqp_lazy_epoch{workload=\"%s\"} %d\n", name, prof.Epoch)
		fmt.Fprintf(w, "rqp_lazy_delta_appends_total{workload=\"%s\"} %d\n", name, prof.DeltaAppends)
		fmt.Fprintf(w, "rqp_lazy_delta_points_total{workload=\"%s\"} %d\n", name, prof.DeltaPoints)
		fmt.Fprintf(w, "rqp_lazy_delta_bytes_total{workload=\"%s\"} %d\n", name, prof.DeltaBytes)
	}

	fmt.Fprintln(w, "# HELP rqp_requests_total Discovery and MSO requests routed, per strategy.")
	fmt.Fprintln(w, "# TYPE rqp_requests_total counter")
	names := make([]string, 0, len(s.metrics.byStrategy))
	for name := range s.metrics.byStrategy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "rqp_requests_total{strategy=\"%s\"} %d\n",
			sanitizeLabel(name), s.metrics.byStrategy[name].Load())
	}
}
