// Package server exposes cached discovery artifacts over a hardened
// long-running HTTP service: compile once, then serve Discover/MSO
// requests concurrently, each bounded by a per-request deadline,
// admitted through a bounded queue with load shedding, guarded by a
// per-workload circuit breaker, and (optionally) warm-started from
// crash-safe ESS snapshots. Rejections are always typed JSON errors —
// the service degrades by refusing work, never by wedging or returning
// a silently wrong answer.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Workloads names the workload.ByName specs to compile and serve
	// (default: the EQ running example).
	Workloads []string
	// Scale is the catalog scale factor (default 1.0).
	Scale float64
	// Res overrides the per-dimension grid resolution (0 = spec default).
	Res int
	// ESSMode selects the contour provider: "eager" (default) sweeps the
	// full grid at build time; "lazy" serves from a demand-driven source
	// that settles points as discoveries touch them, folds observed
	// selectivities back into the surface after each request, and
	// persists sparse snapshots with refinement deltas.
	ESSMode string

	// MaxConcurrent bounds discoveries running at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// are shed with 429 + Retry-After (default 16).
	MaxQueue int
	// MaxExecWorkers caps the per-request exec_workers knob (default 8,
	// hard-capped at exec.MaxWorkers). Requests asking for more are
	// clamped, mirroring the timeout cap: over-asking is a preference,
	// not an error. The served path runs only the cost-model simulation,
	// so the clamped value is keyed and gauged but reaches no executor.
	MaxExecWorkers int

	// DefaultTimeout bounds requests that carry no timeout_ms
	// (default 30s); MaxTimeout caps client-supplied deadlines
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// BreakerThreshold is the consecutive-failure count that trips a
	// workload's circuit open (default 5); BreakerCooldown is the open
	// interval before a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SnapshotDir, when set, enables the crash-safe artifact cache:
	// snapshots are warm-loaded (strictly verified) at startup, corrupt
	// ones quarantined aside and rebuilt, and fresh builds persisted
	// atomically.
	SnapshotDir string

	// FaultSeed/FaultRate arm chaos mode: every request runs with a
	// deterministic injector substream forked from (FaultSeed,
	// request fault_seed). Zero rate disarms chaos entirely.
	FaultSeed uint64
	FaultRate float64
	// AllowRequestFaults additionally honors request-supplied
	// fault_rate overrides while FaultRate is zero. Off by default: a
	// disarmed server ignores client chaos knobs, so an unauthenticated
	// client cannot inject faults that trip the shared breaker.
	AllowRequestFaults bool

	// ExecLatency simulates the per-execution latency of a remote
	// engine (discovery.Latent), interruptible by request deadlines.
	ExecLatency time.Duration

	// DrainTimeout bounds the graceful drain after the serve context is
	// canceled (default 10s).
	DrainTimeout time.Duration

	// PprofAddr, when set, serves net/http/pprof on a second listener
	// bound to that address (e.g. "127.0.0.1:6060"). The profiling
	// endpoint is kept off the service mux so operators can firewall it
	// separately from client traffic; empty disables it.
	PprofAddr string

	// CacheBytes budgets the signature-keyed on-demand artifact cache
	// (default 256 MiB). Pinned workloads are not cached — they are
	// resident for the server's lifetime.
	CacheBytes int64

	// OutcomeCacheBytes budgets the deterministic outcome cache that
	// serves repeat /discover requests from pre-encoded response bytes
	// (0 = 64 MiB default, negative disables the cache entirely).
	// Outcomes are deterministic given the full request key, so the
	// cache is semantically transparent: a hit is byte-identical to the
	// execution it replaced.
	OutcomeCacheBytes int64

	// Peers is the static replica set for shard-out mode: base URLs
	// (scheme://host:port, no trailing slash) including this replica's
	// own SelfURL. Query signatures are consistent-hashed across the
	// set and /discover requests proxied to their owner, with hedged
	// failover down the ring on timeout or refusal. Empty disables
	// sharding entirely.
	Peers []string
	// SelfURL identifies this replica within Peers; required (and must
	// appear in Peers) when Peers is non-empty.
	SelfURL string
	// ForwardTimeout bounds one proxy attempt to a peer before hedging
	// to the next replica (default 5s).
	ForwardTimeout time.Duration
	// HealthInterval is how long a peer health verdict is trusted
	// before re-probing (default 1s).
	HealthInterval time.Duration

	// Now is the clock the circuit breakers read (default time.Now);
	// tests inject a fake to drive cooldowns deterministically.
	Now func() time.Time
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"EQ"}
	}
	if c.ESSMode == "" {
		c.ESSMode = "eager"
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxExecWorkers <= 0 {
		c.MaxExecWorkers = 8
	}
	if c.MaxExecWorkers > exec.MaxWorkers {
		c.MaxExecWorkers = exec.MaxWorkers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 5 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// workloadState is one served workload: its spec, lazily built
// artifact, and circuit breaker.
type workloadState struct {
	name    string
	spec    workload.Spec
	breaker *breaker

	// onDemand marks a tenant admitted after startup: its artifact
	// lives in the signature-keyed cache (evictable, compiled through
	// the coalescing flight group), not in this struct. sigKey is the
	// full artifact-signature hash — the cache and shard-ring key.
	onDemand bool
	sigKey   uint64

	mu          sync.RWMutex
	compiled    *core.Compiled
	buildErr    error
	quarantined string // path a corrupt snapshot was renamed to
	warmLoaded  bool

	// lazy is set when the workload serves from a demand-driven source
	// (Config.ESSMode "lazy"): the server feeds observed selectivities
	// back into it after each discovery and appends refinement deltas to
	// its snapshot.
	lazy *ess.LazySpace
	// persistMu serializes delta appends; persistMark is the watermark
	// of point values already on disk (nil when snapshotting is off or
	// the base save failed).
	persistMu   sync.Mutex
	persistMark map[int32]bool
	snapPath    string

	ready chan struct{} // closed when the first build/load attempt ends
}

func (ws *workloadState) artifact() (*core.Compiled, error) {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	return ws.compiled, ws.buildErr
}

// isLazy reports whether the workload serves from a demand-driven
// (online-refining) contour source.
func (ws *workloadState) isLazy() bool {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	return ws.lazy != nil
}

// epoch returns the workload's ESS refinement epoch: the source's
// current epoch — 0, the frozen forever value, for eager spaces and for
// on-demand tenants, whose (always eager) artifact lives in the cache.
// Outcome-cache keys carry it so online refinement invalidates every
// outcome computed against the older contour surface.
func (ws *workloadState) epoch() uint64 {
	ws.mu.RLock()
	c := ws.compiled
	ws.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Source.Epoch()
}

func (ws *workloadState) status() string {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	switch {
	case ws.compiled != nil:
		return "ready"
	case ws.buildErr != nil:
		return "failed"
	default:
		return "building"
	}
}

// Server is the discovery service.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	sem    chan struct{}
	queued atomic.Int64
	faults *faultinject.Injector // base chaos injector (nil when disarmed)

	// wmu guards the workloads map: pinned entries are inserted in New
	// and never removed; on-demand tenants are added by resolveWorkload
	// under the write lock. order lists the pinned names (immutable).
	wmu       sync.RWMutex
	workloads map[string]*workloadState
	order     []string
	metrics   *metrics

	// cache holds on-demand artifacts keyed by signature; flights
	// coalesces concurrent compiles of one signature; compiles counts
	// completed compiles per workload name (string → *atomic.Int64).
	cache    *core.ArtifactCache
	flights  *flightGroup
	compiles sync.Map
	// sigIdx maps pure-SQL signature hashes to registered spec names,
	// for requests that identify their workload by SQL text.
	sigIdx map[uint64][]string

	// ring and peers are the shard-out state (nil when Peers is empty).
	ring  *hashRing
	peers *peerSet

	// outcomes is the deterministic outcome cache (nil when disabled):
	// full-request-keyed, storing each served outcome with its exact
	// response bytes so a repeat request bypasses routing, admission,
	// execution, and re-encoding. front is the request-identity table
	// in front of it (see front.go): byte-identical repeats skip JSON
	// decoding and key derivation too. encodeErrSeen tracks which
	// encode error kinds have been logged (once per kind).
	outcomes      *core.OutcomeCache
	front         frontTable
	encodeErrSeen sync.Map

	draining atomic.Bool
	inflight sync.WaitGroup
}

// New creates a server for the configured workloads and starts
// compiling (or warm-loading) their artifacts in the background. The
// server can accept connections immediately: requests for workloads
// still compiling get 503 + Retry-After, and /readyz turns 200 once
// every artifact is up.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		workloads: make(map[string]*workloadState, len(cfg.Workloads)),
		metrics:   newMetrics(),
		cache:     core.NewArtifactCache(cfg.CacheBytes),
		flights:   newFlightGroup(),
		sigIdx:    buildSigIndex(),
	}
	if cfg.OutcomeCacheBytes >= 0 {
		s.outcomes = core.NewOutcomeCache(cfg.OutcomeCacheBytes)
	}
	if err := workload.CheckMode(cfg.ESSMode); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.FaultRate > 0 {
		s.faults = faultinject.NewUniform(cfg.FaultSeed, cfg.FaultRate)
	}
	if len(cfg.Peers) > 0 {
		self := false
		for _, p := range cfg.Peers {
			if p == cfg.SelfURL {
				self = true
				break
			}
		}
		if !self {
			return nil, fmt.Errorf("server: SelfURL %q must appear in Peers", cfg.SelfURL)
		}
		s.ring = newHashRing(cfg.Peers)
		s.peers = newPeerSet(cfg.SelfURL, cfg.HealthInterval, cfg.Now, cfg.ForwardTimeout)
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: snapshot dir: %w", err)
		}
		if orphans := ess.SweepTemps(cfg.SnapshotDir); len(orphans) > 0 {
			cfg.Logf("server: swept %d orphaned snapshot temp(s)", len(orphans))
		}
	}
	for _, name := range cfg.Workloads {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		sig, err := s.signatureFor(spec)
		if err != nil {
			return nil, fmt.Errorf("server: signing %s: %w", name, err)
		}
		ws := &workloadState{
			name: name, spec: spec, sigKey: sig.Hash,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now),
			ready:   make(chan struct{}),
		}
		s.workloads[name] = ws
		s.order = append(s.order, name)
		go s.buildWorkload(ws)
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /discover", s.handleDiscover)
	s.mux.HandleFunc("POST /mso", s.handleMSO)
	return s, nil
}

// snapshotter is the persistence half both contour providers implement
// beside ess.ContourSource: the framed snapshot stream and its atomic
// publish to a file.
type snapshotter interface {
	Save(w io.Writer) error
	SaveFileWith(path string, in *faultinject.Injector) error
}

// buildWorkload is the one path from a spec to a published artifact,
// whatever the ESS mode: warm-load the workload's snapshot if one exists
// (strictly verified; anything corrupt is quarantined aside), else — in
// shard-out mode — warm from a peer, else build cold and persist the
// fresh build atomically; then compile and publish. Lazy snapshots (a
// sparse base frame plus refinement deltas) live beside the eager ones
// under a distinct suffix, so flipping -ess-mode never quarantines the
// other mode's valid artifact.
func (s *Server) buildWorkload(ws *workloadState) {
	defer close(ws.ready)
	mode := s.cfg.ESSMode
	var snapPath string
	if s.cfg.SnapshotDir != "" {
		suffix := ".snap"
		if mode == "lazy" {
			suffix = ".lazy.snap"
		}
		snapPath = filepath.Join(s.cfg.SnapshotDir, ws.name+suffix)
		if src, ok := s.warmLoad(ws, snapPath); ok {
			s.install(ws, src, snapPath, true)
			return
		}
	}
	var src ess.ContourSource
	warm := false
	// Shard-out warm fan-out: a restarted replica rebuilds from its
	// peers' snapshot streams before paying a cold build. Peers stream
	// dense frames to dense loaders only; a lazy replica builds its own
	// (cheap) skeleton.
	if s.ring != nil && mode != "lazy" {
		if sp := s.fetchPeerSnapshot(ws); sp != nil {
			src, warm = sp, true
		}
	}
	if src == nil {
		var err error
		if src, err = ws.spec.Source(mode, s.cfg.Scale, ess.Config{Res: s.cfg.Res}); err != nil {
			ws.mu.Lock()
			ws.buildErr = err
			ws.mu.Unlock()
			s.cfg.Logf("server: building %s (%s): %v", ws.name, mode, err)
			return
		}
	}
	if sn, ok := src.(snapshotter); ok && snapPath != "" {
		if err := sn.SaveFileWith(snapPath, s.faults); err != nil {
			s.cfg.Logf("server: persisting %s %s snapshot: %v (serving from memory)", ws.name, mode, err)
			snapPath = "" // no base on disk: delta appends would be orphaned
		}
	}
	s.install(ws, src, snapPath, warm)
}

// warmLoad tries the snapshot at path with strict verification, through
// the loader of the server's ESS mode. A missing file is a clean miss,
// as is a structurally valid snapshot built at a different grid
// resolution than the one configured (a stale artifact from before a
// -res change — the rebuild overwrites it); anything else — including
// the ErrCorrupt a torn refinement-delta tail produces — quarantines the
// file aside (rename, preserving the evidence) and reports a miss so the
// caller rebuilds.
func (s *Server) warmLoad(ws *workloadState, path string) (ess.ContourSource, bool) {
	q, env, model, err := ws.spec.Bind(s.cfg.Scale)
	if err != nil {
		return nil, false
	}
	mode := s.cfg.ESSMode
	strict := ess.LoadOptions{Strict: true}
	var src ess.ContourSource // stays nil on error: no typed nil pointer inside
	if mode == "lazy" {
		var ls *ess.LazySpace
		if ls, err = ess.LoadLazyFile(path, q, env, model, ess.Config{Res: s.cfg.Res}, strict); err == nil {
			src = ls
		}
	} else {
		var sp *ess.Space
		if sp, err = ess.LoadFile(path, q, env, model, strict); err == nil {
			src = sp
		}
	}
	if err == nil {
		// Strict recosting already pins the snapshot to this scale's
		// catalog; the grid resolution must also match what we would
		// build, or the configured -res would silently be ignored.
		wantRes := s.cfg.Res
		if wantRes <= 0 {
			wantRes = ws.spec.Res
		}
		if got := src.Geometry().Res; got != wantRes {
			s.cfg.Logf("server: %s %s snapshot has res %d, config wants %d; rebuilding",
				ws.name, mode, got, wantRes)
			return nil, false
		}
		s.cfg.Logf("server: %s warm-loaded (%s, %d settled) from %s",
			ws.name, mode, src.Profile().Settled, path)
		return src, true
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil, false
	}
	qpath := path + ".quarantined"
	if rerr := os.Rename(path, qpath); rerr != nil {
		qpath = ""
	}
	ws.mu.Lock()
	ws.quarantined = qpath
	ws.mu.Unlock()
	s.cfg.Logf("server: %s %s snapshot rejected (%v); quarantined to %q, rebuilding", ws.name, mode, err, qpath)
	return nil, false
}

// install compiles over the source and publishes the artifact. What is
// genuinely lazy-only hangs off the one type assertion here: the
// refinement feed's handle and the delta-persistence watermark (primed
// to what the base frame on disk already holds).
func (s *Server) install(ws *workloadState, src ess.ContourSource, snapPath string, warm bool) {
	c, err := core.CompileSource(src, core.CompileOptions{})
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err != nil {
		ws.buildErr = err
		return
	}
	ws.compiled = c
	ws.warmLoaded = warm
	if ls, ok := src.(*ess.LazySpace); ok {
		ws.lazy = ls
		ws.snapPath = snapPath
		if snapPath != "" {
			ws.persistMark = make(map[int32]bool)
			ls.DeltaSince(ws.persistMark) // the base frame holds these already
		}
	}
}

// feedRefinements folds one discovery's observed selectivities back
// into a lazy workload's surface: every spill step that learned (or
// bounded) a dimension index becomes an Observe, queued refinements are
// applied, and newly settled or refined point values are appended to
// the snapshot as a delta. Non-lazy workloads and nil outcomes are
// no-ops.
func (s *Server) feedRefinements(ws *workloadState, out *discovery.Outcome) {
	if ws.lazy == nil || out == nil {
		return
	}
	observed := false
	for _, st := range out.Steps {
		if st.Dim >= 0 && st.LearnedIdx >= 0 {
			ws.lazy.Observe(st.Dim, st.LearnedIdx)
			observed = true
			s.metrics.refineObs.Add(1)
		}
	}
	if observed {
		if n := ws.lazy.ApplyRefinements(); n > 0 {
			s.metrics.refinedPoints.Add(int64(n))
		}
	}
	if ws.snapPath == "" {
		return
	}
	ws.persistMu.Lock()
	defer ws.persistMu.Unlock()
	d := ws.lazy.DeltaSince(ws.persistMark)
	if d == nil {
		return
	}
	if err := ws.lazy.AppendDeltaFileWith(ws.snapPath, d, s.faults); err != nil {
		s.cfg.Logf("server: appending %s refinement delta: %v (next load will rebuild)", ws.name, err)
	}
}

// WaitReady blocks until every workload's first build/load attempt has
// finished (successfully or not), or the context expires.
func (s *Server) WaitReady(ctx context.Context) error {
	for _, name := range s.order {
		ws, _ := s.getWorkload(name)
		select {
		case <-ws.ready:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until ctx is canceled (SIGTERM via
// signal.NotifyContext in the CLI), then drains gracefully: readiness
// flips to 503 so load balancers stop routing, in-flight requests run
// to completion, and the listener closes — bounded by DrainTimeout.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	var pprofSrv *http.Server
	if s.cfg.PprofAddr != "" {
		pl, err := net.Listen("tcp", s.cfg.PprofAddr)
		if err != nil {
			return fmt.Errorf("server: pprof listen: %w", err)
		}
		pprofSrv = &http.Server{Handler: PprofHandler()}
		s.cfg.Logf("server: pprof listening on http://%s/debug/pprof/", pl.Addr())
		go pprofSrv.Serve(pl)
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		if pprofSrv != nil {
			// Diagnostics only: close immediately, no graceful drain.
			pprofSrv.Close()
		}
		s.draining.Store(true)
		s.cfg.Logf("server: draining (waiting for in-flight requests, max %s)", s.cfg.DrainTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(shCtx)
		// Shutdown waits for connections; also wait on the handler
		// WaitGroup explicitly so the drain guarantee holds even for
		// handlers not tied to a tracked connection, bounded by the
		// same budget.
		idle := make(chan struct{})
		go func() { s.inflight.Wait(); close(idle) }()
		select {
		case <-idle:
		case <-shCtx.Done():
			if err == nil {
				err = shCtx.Err()
			}
		}
		done <- err
	}()
	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	s.cfg.Logf("server: drained cleanly")
	return nil
}

// Draining reports whether the server has begun its graceful drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// PprofHandler returns the net/http/pprof handler tree served on the
// PprofAddr listener. It is built on a private mux (not
// http.DefaultServeMux) so nothing leaks onto the service handler.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ---- wire types ----

// DiscoverRequest is the POST /discover body. Algorithm and Strategy
// both select the discovery policy: Algorithm accepts the three paper
// algorithms (with pb/sb/ab aliases), Strategy any name in the strategy
// registry. Setting both to different policies is a 400; setting
// neither defaults to SpillBound.
type DiscoverRequest struct {
	Workload string `json:"workload"`
	// SQL identifies the workload by query text instead of (or in
	// addition to) Workload: the server canonicalizes it to a
	// signature and resolves the registered spec. When several specs
	// share one SQL body (the Q91 family), Workload must disambiguate.
	SQL       string  `json:"sql,omitempty"`
	Algorithm string  `json:"algorithm"`
	Strategy  string  `json:"strategy,omitempty"`
	QA        int32   `json:"qa"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`
	// ExecWorkers asks for intra-query morsel parallelism (0 = sequential;
	// clamped to Config.MaxExecWorkers; negative is a 400). The served
	// path simulates execution from the cost model, so today the clamped
	// value only keys the outcome cache and the rqp_exec_workers gauge;
	// no executor runs with it, and no cost in the response depends on it.
	ExecWorkers int `json:"exec_workers,omitempty"`
}

// DiscoverResponse is the POST /discover result: the outcome ledger of
// one discovery. On 504 it carries the partial outcome with Aborted
// set to the abort cause.
type DiscoverResponse struct {
	Workload     string                  `json:"workload"`
	Algorithm    string                  `json:"algorithm"`
	Strategy     string                  `json:"strategy,omitempty"`
	QA           int32                   `json:"qa"`
	Completed    bool                    `json:"completed"`
	TotalCost    float64                 `json:"total_cost"`
	SubOpt       float64                 `json:"sub_opt"`
	Steps        int                     `json:"steps"`
	Retries      int                     `json:"retries"`
	WastedCost   float64                 `json:"wasted_cost"`
	AlignPenalty float64                 `json:"align_penalty,omitempty"`
	Degradations []discovery.Degradation `json:"degradations,omitempty"`
	Aborted      string                  `json:"aborted,omitempty"`
	// ServedBy is the replica that ran the discovery (shard-out mode
	// only). Degraded is set to "failover" when the request did not
	// run on its signature's preferred owner — one or more owners were
	// down and the ring (or the local fallback) absorbed the request.
	ServedBy string `json:"served_by,omitempty"`
	Degraded string `json:"degraded,omitempty"`
}

// MSORequest is the POST /mso body.
type MSORequest struct {
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Stride    int    `json:"stride,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// MSOResponse is the POST /mso result.
type MSOResponse struct {
	Workload  string  `json:"workload"`
	Algorithm string  `json:"algorithm"`
	MSO       float64 `json:"mso"`
	ASO       float64 `json:"aso"`
	ArgMax    int32   `json:"arg_max"`
	Points    int     `json:"points"`
	Guarantee float64 `json:"guarantee"`
}

// ErrorResponse is the body of every non-200 reply: a typed, machine-
// readable rejection.
type ErrorResponse struct {
	Error        string `json:"error"`
	Kind         string `json:"kind"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Rejection kinds.
const (
	KindBadRequest  = "bad-request"
	KindNotFound    = "not-found"
	KindBuilding    = "building"
	KindBuildFailed = "build-failed"
	KindDraining    = "draining"
	KindShed        = "shed"
	KindBreakerOpen = "breaker-open"
	KindDeadline    = "deadline"
	KindEngineFault = "engine-fault"
)

// rejection is one typed refusal as a request stage returns it: the
// fields of the ErrorResponse writeError renders or, for a discovery cut
// short by its deadline, the partial DiscoverResponse its 504 carries.
type rejection struct {
	code       int
	kind       string
	msg        string
	retryAfter time.Duration
	body       any
}

func reject(code int, kind, msg string, retryAfter time.Duration) *rejection {
	return &rejection{code: code, kind: kind, msg: msg, retryAfter: retryAfter}
}

var drainingRejection = reject(http.StatusServiceUnavailable, KindDraining, "server draining", time.Second)

// WorkloadInfo is one entry of GET /workloads.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Status      string `json:"status"`
	Breaker     string `json:"breaker"`
	D           int    `json:"d,omitempty"`
	Points      int    `json:"points,omitempty"`
	Mode        string `json:"mode,omitempty"`
	Settled     int    `json:"settled,omitempty"`
	WarmLoaded  bool   `json:"warm_loaded,omitempty"`
	Quarantined string `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
}

// ---- handlers ----

// jsonBuf pairs a reusable encode buffer with an encoder bound to it
// for its whole pooled lifetime, so the serve path pays neither a
// fresh buffer nor a fresh json.Encoder per response. An encoder that
// has returned an error is poisoned (encoding/json latches the first
// error), so error paths drop the pair instead of re-pooling it.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// maxPooledBuf caps the capacity of buffers returned to the pools; a
// one-off giant response must not pin its buffer for the process
// lifetime.
const maxPooledBuf = 1 << 16

func releaseJSONBuf(jb *jsonBuf) {
	if jb.buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(jb)
	}
}

// encodeFailBody is the static fallback written when a response value
// itself fails to encode — the one case writeJSON cannot report
// through its own machinery.
const encodeFailBody = "{\"error\":\"response encoding failed\",\"kind\":\"encode-error\"}\n"

// reqBuf is a pooled request-body reader: the buffer and its size
// limiter live together so a request read costs no allocations at all.
type reqBuf struct {
	buf bytes.Buffer
	lr  io.LimitedReader
}

// maxRequestBytes bounds a request body; beyond it the read fails.
const maxRequestBytes = 1 << 20

// reqBufPool recycles request-body read buffers: reading through a
// pooled buffer plus json.Unmarshal replaces the per-request
// json.NewDecoder and its internal scratch allocations.
var reqBufPool = sync.Pool{New: func() any { return new(reqBuf) }}

// readRequestBody reads the bounded request body into a pooled buffer
// and returns it. The caller must releaseReqBuf when done with the
// bytes (they alias the pooled buffer).
func readRequestBody(r *http.Request) (*reqBuf, error) {
	rb := reqBufPool.Get().(*reqBuf)
	rb.buf.Reset()
	rb.lr.R = r.Body
	rb.lr.N = maxRequestBytes + 1
	if _, err := rb.buf.ReadFrom(&rb.lr); err != nil {
		releaseReqBuf(rb)
		return nil, err
	}
	if rb.lr.N <= 0 {
		releaseReqBuf(rb)
		return nil, fmt.Errorf("request body exceeds %d bytes", maxRequestBytes)
	}
	return rb, nil
}

func releaseReqBuf(rb *reqBuf) {
	rb.lr.R = nil
	if rb.buf.Cap() <= maxPooledBuf {
		reqBufPool.Put(rb)
	}
}

// encodeBody encodes v into a pooled buffer. On failure it counts the
// encode error, logs once per error kind, and returns ok=false with
// the poisoned pair already discarded.
func (s *Server) encodeBody(v any) (*jsonBuf, bool) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		s.countEncodeError("marshal", err)
		return nil, false
	}
	return jb, true
}

// contentTypeJSON is the shared Content-Type value slice; assigning it
// directly (instead of Header().Set) avoids a per-response allocation.
// http.Header values are never mutated by the stack, only replaced.
var contentTypeJSON = []string{"application/json"}

// writeBytes writes a fully encoded JSON body — the zero-copy exit for
// both cached responses and pooled-buffer encodes. Write failures
// (client gone mid-body) are counted, not silently dropped.
func (s *Server) writeBytes(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		s.countEncodeError("write", err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	jb, ok := s.encodeBody(v)
	if !ok {
		s.writeBytes(w, http.StatusInternalServerError, []byte(encodeFailBody))
		return
	}
	s.writeBytes(w, code, jb.buf.Bytes())
	releaseJSONBuf(jb)
}

// countEncodeError records one dropped/failed response encode in the
// rqp_encode_errors_total counter and logs the first occurrence of
// each (stage, error type) kind — enough to diagnose without letting a
// disconnect-happy client flood the log.
func (s *Server) countEncodeError(stage string, err error) {
	s.metrics.encodeErrors.Add(1)
	kind := fmt.Sprintf("%s:%T", stage, err)
	if _, seen := s.encodeErrSeen.LoadOrStore(kind, true); !seen {
		s.cfg.Logf("server: response %s error (%s): %v (logged once per kind)", stage, kind, err)
	}
}

// writeError is the one exit every rejection leaves through.
func (s *Server) writeError(w http.ResponseWriter, rj *rejection) {
	if rj.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(max(int64(rj.retryAfter/time.Second), 1), 10))
	}
	if rj.body != nil {
		s.writeJSON(w, rj.code, rj.body)
		return
	}
	s.writeJSON(w, rj.code, ErrorResponse{
		Error: rj.msg, Kind: rj.kind, RetryAfterMS: rj.retryAfter.Milliseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readyz struct {
		Ready     bool              `json:"ready"`
		Draining  bool              `json:"draining,omitempty"`
		Workloads map[string]string `json:"workloads"`
	}
	rz := readyz{Ready: true, Draining: s.draining.Load(), Workloads: map[string]string{}}
	// Readiness tracks the pinned workloads only: on-demand tenants
	// compile on first request and never gate the replica's readiness.
	for _, name := range s.order {
		ws, _ := s.getWorkload(name)
		st := ws.status()
		rz.Workloads[name] = st
		if st != "ready" {
			rz.Ready = false
		}
	}
	if rz.Draining {
		rz.Ready = false
	}
	code := http.StatusOK
	if !rz.Ready {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, rz)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	states := s.snapshotWorkloads()
	out := make([]WorkloadInfo, 0, len(states))
	for _, ws := range states {
		info := WorkloadInfo{Name: ws.name, Status: ws.status(), Breaker: ws.breaker.State()}
		if ws.onDemand {
			// On-demand tenants live in the signature-keyed cache.
			info.Mode = "on-demand"
			if art, ok := s.cache.Peek(ws.sigKey); ok {
				info.Status = "resident"
				g := art.Source.Geometry()
				info.D = g.D
				info.Points = g.NumPoints()
			} else {
				info.Status = "evicted"
			}
			out = append(out, info)
			continue
		}
		ws.mu.RLock()
		if ws.compiled != nil {
			g := ws.compiled.Source.Geometry()
			info.D = g.D
			info.Points = g.NumPoints()
			info.WarmLoaded = ws.warmLoaded
			prof := ws.compiled.Source.Profile()
			info.Mode = prof.Mode
			info.Settled = prof.Settled
		}
		if ws.buildErr != nil {
			info.Error = ws.buildErr.Error()
		}
		info.Quarantined = ws.quarantined
		ws.mu.RUnlock()
		out = append(out, info)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// admit enters the bounded admission queue: a free slot is taken
// immediately; otherwise the request waits as one of at most MaxQueue
// queued requests, or is shed. The returned release func is non-nil
// exactly when admission succeeded.
func (s *Server) admit(ctx context.Context) (release func(), shed bool, err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, false, nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, true, nil
	}
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		return func() { <-s.sem }, false, nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return nil, false, ctx.Err()
	}
}

// enter is the admission stage /discover and /mso share: the breaker's
// Allow, the request deadline (timeout_ms, capped by MaxTimeout) and the
// bounded admission queue, rejecting with 503 breaker-open, 429 shed or
// a 504 queued deadline. Past Allow every exit ends in leave — free the
// slot, cancel the context, settle the breaker with the final rejection
// — which enter calls on its own rejections and an admitted caller defers.
func (s *Server) enter(r *http.Request, ws *workloadState, timeoutMS int64) (ctx context.Context, leave func(*rejection), rj *rejection) {
	if allowed, wait := ws.breaker.Allow(); !allowed {
		return nil, nil, reject(http.StatusServiceUnavailable, KindBreakerOpen,
			fmt.Sprintf("workload %s circuit open", ws.name), wait)
	}
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(timeout, s.cfg.MaxTimeout))
	free, shed, err := s.admit(ctx)
	leave = func(rj *rejection) {
		if free != nil {
			free()
		}
		cancel()
		ws.breaker.settle(rj)
	}
	if free != nil {
		return ctx, leave, nil
	}
	if shed {
		rj = reject(http.StatusTooManyRequests, KindShed, "admission queue full", time.Second)
	} else { // deadline expired while queued
		rj = reject(http.StatusGatewayTimeout, KindDeadline,
			"deadline expired waiting for an execution slot: "+err.Error(), 0)
	}
	leave(rj)
	return nil, nil, rj
}

// requestFaultRate resolves the fault rate a request's injector runs at
// (0 = disarmed). Request-supplied rates are only honored when the
// operator armed chaos (FaultRate > 0 or AllowRequestFaults); otherwise
// a client could inject faults at will and trip the shared breaker for
// everyone.
func (s *Server) requestFaultRate(req *DiscoverRequest) float64 {
	if req.FaultRate > 0 && (s.faults != nil || s.cfg.AllowRequestFaults) {
		return req.FaultRate
	}
	return s.cfg.FaultRate
}

func parseAlgorithm(s string) (core.Algorithm, error) {
	switch strings.ToLower(s) {
	case "planbouquet", "pb":
		return core.PlanBouquet, nil
	case "spillbound", "sb", "":
		return core.SpillBound, nil
	case "alignedbound", "ab":
		return core.AlignedBound, nil
	}
	return "", fmt.Errorf("unknown algorithm %q", s)
}

// resolveStrategy maps a request's algorithm/strategy pair onto one
// registry name. Strategy accepts any name in the strategy registry;
// Algorithm keeps its pb/sb/ab aliases for the paper algorithms. The
// paper algorithm names double as registry names, so both fields
// resolve into the same namespace — and when both are set they must
// agree, because a request naming two different policies is a
// contradiction, not a preference order.
func resolveStrategy(algField, stratField string) (string, error) {
	if stratField == "" {
		alg, err := parseAlgorithm(algField)
		if err != nil {
			return "", err
		}
		return string(alg), nil
	}
	st, ok := core.StrategyByName(stratField)
	if !ok {
		return "", fmt.Errorf("unknown strategy %q (registered: %s)",
			stratField, strings.Join(core.StrategyNamesSorted(), ", "))
	}
	name := st.Name()
	if algField != "" {
		alg, err := parseAlgorithm(algField)
		if err != nil {
			return "", err
		}
		if string(alg) != name {
			return "", fmt.Errorf("conflicting algorithm %q and strategy %q", algField, stratField)
		}
	}
	return name, nil
}

// resident returns the workload's built artifact without building
// anything: a pinned workload's published artifact, or an on-demand
// tenant's while it is cache-resident (only /discover compiles tenants).
func (s *Server) resident(ws *workloadState) (*core.Compiled, *rejection) {
	if ws.onDemand {
		if c, ok := s.cache.Get(ws.sigKey); ok {
			return c, nil
		}
		return nil, reject(http.StatusServiceUnavailable, KindBuilding,
			fmt.Sprintf("on-demand workload %s is not resident; issue a discover first", ws.name), time.Second)
	}
	c, err := ws.artifact()
	if err != nil {
		return nil, reject(http.StatusInternalServerError, KindBuildFailed,
			fmt.Sprintf("workload %s failed to build: %v", ws.name, err), 0)
	}
	if c == nil {
		return nil, reject(http.StatusServiceUnavailable, KindBuilding,
			fmt.Sprintf("workload %s still compiling", ws.name), time.Second)
	}
	return c, nil
}

// discoverCall is one /discover request on its way through the stages.
type discoverCall struct {
	w         http.ResponseWriter
	r         *http.Request
	req       *DiscoverRequest
	rate      float64 // effective fault rate; 0 = disarmed
	learnBody []byte  // bytes the front table may learn; nil = not learnable
	strategy  string
	ws        *workloadState
	in        *faultinject.Injector
	workers   int
	cacheable bool // outcome cache on and not a failover retry
	key       core.OutcomeKey
	failover  bool // served here because the owner replicas were down
	c         *core.Compiled
	out       *core.Outcome
	resp      DiscoverResponse
}

// handleDiscover runs a request through its stages: decode and validate
// → resolve workload → key and outcome-cache lookup → route → artifact →
// admit → run → respond. A stage passes the request on, serves it (cache
// hit, relayed reply) or returns the typed rejection the exit writes.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	defer s.metrics.track()()
	d := discoverCall{w: w, r: r}
	served, rj := s.decode(&d)
	if rj == nil && !served {
		d.ws, rj = s.resolveWorkload(d.req)
	}
	if rj == nil && !served && !s.key(&d) && !s.route(&d) {
		if !d.ws.onDemand {
			rj = s.artifact(r.Context(), &d)
		}
		if rj == nil {
			rj = s.run(&d)
		}
		if rj == nil {
			s.respond(&d)
		}
	}
	if rj != nil {
		s.writeError(w, rj)
	}
}

// decode reads the body and serves a byte-identical repeat of a learned
// request from the front table, with no JSON decoding or key derivation.
// Otherwise it unmarshals the request and validates every field it can
// before resolveWorkload may register a tenant for a refused request.
func (s *Server) decode(d *discoverCall) (served bool, rj *rejection) {
	if s.draining.Load() {
		return false, drainingRejection
	}
	rb, err := readRequestBody(d.r)
	if err != nil {
		return false, reject(http.StatusBadRequest, KindBadRequest, "invalid JSON body: "+err.Error(), 0)
	}
	defer releaseReqBuf(rb)
	body := rb.buf.Bytes()
	direct := d.r.Header.Get(failoverHeader) == ""
	if s.outcomes != nil && direct {
		if e := s.front.get(body); e != nil {
			// Re-stamped from the live workload state, so a refinement
			// that moved the surface turns this into a miss.
			key := e.key
			key.Epoch = e.ws.epoch()
			if c, hit := s.outcomes.Get(key); hit {
				s.metrics.countRequest(e.strategy)
				s.writeBytes(d.w, http.StatusOK, c.Body)
				return true, nil
			}
		}
	}
	d.req = new(DiscoverRequest)
	if err := json.Unmarshal(body, d.req); err != nil {
		return false, reject(http.StatusBadRequest, KindBadRequest, "invalid JSON body: "+err.Error(), 0)
	}
	// The front table learns this body after the pooled buffer is
	// recycled, so copy it now, if it is learnable at all: armed requests
	// must re-roll their chaos sites on every arrival.
	d.rate = s.requestFaultRate(d.req)
	if s.outcomes != nil && direct && s.front.n.Load() < frontCap && d.rate <= 0 {
		d.learnBody = bytes.Clone(body)
	}
	if d.strategy, err = resolveStrategy(d.req.Algorithm, d.req.Strategy); err != nil {
		return false, reject(http.StatusBadRequest, KindBadRequest, err.Error(), 0)
	}
	if d.req.ExecWorkers < 0 {
		return false, reject(http.StatusBadRequest, KindBadRequest,
			fmt.Sprintf("exec_workers %d must be non-negative", d.req.ExecWorkers), 0)
	}
	return false, nil
}

// key arms the request's fault substream (a pure function of the server
// and request seeds, so a fault_seed replays bit for bit), clamps its
// worker count, and serves a repeat from the outcome cache ahead of
// routing, breaker, admission and dispatch. The key is the request's full
// deterministic identity: equal keys mean byte-identical responses.
// Failover retries are never keyed: their degradation stamps depend on
// which replicas happened to be down.
func (s *Server) key(d *discoverCall) bool {
	if d.rate > 0 {
		d.in = faultinject.NewUniform(s.cfg.FaultSeed, d.rate).Fork(d.req.FaultSeed)
	}
	d.workers = min(max(d.req.ExecWorkers, 1), s.cfg.MaxExecWorkers)
	d.cacheable = s.outcomes != nil && d.r.Header.Get(failoverHeader) == ""
	if !d.cacheable {
		return false
	}
	// The server always compiles with CompileOptions{}, so λ is
	// DefaultLambda; keying it keeps entries honest if that changes.
	d.key = core.OutcomeKey{
		SigHash: d.ws.sigKey, Workload: d.ws.name, Strategy: d.strategy,
		QA: int(d.req.QA), ExecWorkers: d.workers,
		Lambda: core.DefaultLambda, Epoch: d.ws.epoch(),
	}
	if d.in != nil {
		d.key.FaultSeed, d.key.FaultRate = d.req.FaultSeed, d.rate
	}
	if d.in.Trip(faultinject.SiteOutcomeEvict) && s.outcomes.Evict(d.key) {
		s.metrics.outcomeChaosEvicts.Add(1)
	}
	e, hit := s.outcomes.Get(d.key)
	if hit {
		s.metrics.countRequest(d.strategy)
		s.writeBytes(d.w, http.StatusOK, e.Body)
	}
	return hit
}

// route proxies the request to its owner replica in shard-out mode (see
// routeDiscover) and reports whether it did. A clean relayed 200 is
// remembered only for eager, unarmed requests: a lazy owner refines its
// surface independently of our epoch, and an armed owner's schedule
// depends on its own chaos configuration.
func (s *Server) route(d *discoverCall) bool {
	if s.ring == nil {
		return false
	}
	var relayed func([]byte)
	if d.cacheable && !d.ws.isLazy() && d.in == nil {
		relayed = func(body []byte) { s.remember(d, &core.CachedOutcome{Body: body}) }
	}
	handled, hops := s.routeDiscover(d.w, d.r, *d.req, d.ws.sigKey, d.in, relayed)
	d.failover = hops > 0 || d.r.Header.Get(failoverHeader) != ""
	return handled
}

// artifact resolves the compiled artifact and makes the one check of the
// grid point. A pinned workload's is a lookup before admission, so its
// build failure or a bad qa never reaches the breaker; an on-demand
// tenant's is compiled (coalesced, through the signature-keyed cache)
// inside the admission slot, behind the breaker.
func (s *Server) artifact(ctx context.Context, d *discoverCall) (rj *rejection) {
	if !d.ws.onDemand {
		d.c, rj = s.resident(d.ws)
	} else if c, err := s.artifactFor(ctx, d.ws, d.in); err == nil {
		d.c = c
	} else if ctx.Err() != nil {
		rj = reject(http.StatusGatewayTimeout, KindDeadline, "deadline expired compiling artifact: "+err.Error(), 0)
	} else {
		kind := KindBuildFailed
		if faultinject.IsTransient(err) || errors.As(err, new(*faultinject.Fault)) {
			kind = KindEngineFault
		}
		rj = reject(http.StatusInternalServerError, kind, fmt.Sprintf("compiling %s: %v", d.ws.name, err), 0)
	}
	if rj != nil {
		return rj
	}
	if n := d.c.Source.Geometry().NumPoints(); d.req.QA < 0 || int(d.req.QA) >= n {
		return reject(http.StatusBadRequest, KindBadRequest, fmt.Sprintf("qa %d outside grid [0, %d)", d.req.QA, n), 0)
	}
	return nil
}

// run admits the request and executes its discovery on the shared sim
// stack (discovery.NewSimStack). Past enter the deferred leave settles
// the breaker once, with the rejection run returns.
func (s *Server) run(d *discoverCall) (rj *rejection) {
	s.metrics.countRequest(d.strategy)
	ctx, leave, rj := s.enter(d.r, d.ws, d.req.TimeoutMS)
	if rj != nil {
		return rj
	}
	defer func() { leave(rj) }()
	if ferr := d.in.Check(faultinject.SiteServeRun); ferr != nil {
		return reject(http.StatusInternalServerError, KindEngineFault, "engine unavailable: "+ferr.Error(), 0)
	}
	if d.ws.onDemand {
		if rj = s.artifact(ctx, d); rj != nil {
			return rj
		}
	}
	releaseWorkers := s.metrics.trackWorkers(d.workers)
	dr := d.c.AcquireRun().WithFaults(d.in).WithContext(ctx).WithExecWorkers(d.workers)
	out, err := dr.DiscoverStrategyWith(d.strategy, discovery.NewSimStack(ctx, d.c.Source, d.req.QA, d.in, s.cfg.ExecLatency))
	core.ReleaseRun(dr)
	releaseWorkers()
	// Completed spill observations are valid selectivity knowledge even
	// when the run itself aborted: fold them into a lazy surface.
	s.feedRefinements(d.ws, out)
	d.out = out
	d.resp = DiscoverResponse{Workload: d.req.Workload, Strategy: d.strategy, QA: d.req.QA}
	if s.ring != nil {
		d.resp.ServedBy = s.cfg.SelfURL
	}
	if d.failover {
		d.resp.Degraded = "failover"
	}
	if _, perr := parseAlgorithm(d.strategy); perr == nil {
		d.resp.Algorithm = d.strategy // paper strategies keep the legacy algorithm echo
	}
	if out != nil {
		d.resp.Completed = out.Completed
		d.resp.TotalCost = out.TotalCost
		d.resp.SubOpt = out.SubOpt(d.c.Source.CostAt(d.req.QA))
		d.resp.Steps = len(out.Steps)
		d.resp.Retries = out.Retries
		d.resp.WastedCost = out.WastedCost
		d.resp.AlignPenalty = out.AlignPenalty
		d.resp.Degradations = out.Degradations
	}
	if aerr := discovery.AbortCause(err); aerr != nil {
		// The 504 carries the partial outcome; a client deadline says
		// nothing about engine health, so the breaker is only withdrawn.
		d.resp.Aborted = aerr.Err.Error()
		return &rejection{code: http.StatusGatewayTimeout, kind: KindDeadline, body: d.resp}
	}
	if err != nil {
		return reject(http.StatusInternalServerError, KindEngineFault, err.Error(), 0)
	}
	return nil
}

// respond writes a finished discovery's response and remembers its
// bytes, except for failover serves (stamped) and when the epoch moved
// past the key's, even by this discovery's own refinements: a later
// identical request must re-execute on the new surface.
func (s *Server) respond(d *discoverCall) {
	jb, ok := s.encodeBody(d.resp)
	if !ok {
		s.writeBytes(d.w, http.StatusInternalServerError, []byte(encodeFailBody))
		return
	}
	if d.cacheable && !d.failover && d.out != nil && d.out.Completed && d.ws.epoch() == d.key.Epoch {
		s.remember(d, &core.CachedOutcome{Outcome: d.out, Body: bytes.Clone(jb.buf.Bytes())})
	}
	s.writeBytes(d.w, http.StatusOK, jb.buf.Bytes())
	releaseJSONBuf(jb)
}

// remember installs a served outcome in the outcome cache and teaches
// the front table the request's identity — only once admitted (an
// identity nobody repeats would squat) and only if learnable.
func (s *Server) remember(d *discoverCall, co *core.CachedOutcome) {
	if _, admitted := s.outcomes.Put(d.key, co); admitted && d.learnBody != nil {
		s.front.put(&frontEntry{body: d.learnBody, ws: d.ws, strategy: d.strategy, key: d.key})
	}
}

func (s *Server) handleMSO(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	defer s.metrics.track()()
	resp, rj := s.sweep(r)
	if rj != nil {
		s.writeError(w, rj)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// sweep runs one /mso request: decode and validate, resident artifact,
// admission, grid sweep. workers is clamped to runtime.NumCPU(), what
// workers: 0 gets, so one admission slot never runs a discovery per grid
// point at once: over-asking is a preference, as with exec_workers.
func (s *Server) sweep(r *http.Request) (resp MSOResponse, rj *rejection) {
	if s.draining.Load() {
		return resp, drainingRejection
	}
	var req MSORequest
	rb, err := readRequestBody(r)
	if err == nil {
		err = json.Unmarshal(rb.buf.Bytes(), &req)
		releaseReqBuf(rb)
	}
	if err != nil {
		return resp, reject(http.StatusBadRequest, KindBadRequest, "invalid JSON body: "+err.Error(), 0)
	}
	alg, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return resp, reject(http.StatusBadRequest, KindBadRequest, err.Error(), 0)
	}
	if req.Stride < 0 {
		return resp, reject(http.StatusBadRequest, KindBadRequest,
			fmt.Sprintf("stride %d must be non-negative", req.Stride), 0)
	}
	if req.Workers < 0 {
		return resp, reject(http.StatusBadRequest, KindBadRequest,
			fmt.Sprintf("workers %d must be non-negative", req.Workers), 0)
	}
	ws, ok := s.getWorkload(req.Workload)
	if !ok {
		return resp, reject(http.StatusNotFound, KindNotFound, fmt.Sprintf("unknown workload %q", req.Workload), 0)
	}
	c, rj := s.resident(ws)
	if rj != nil {
		return resp, rj
	}
	s.metrics.countRequest(string(alg))
	ctx, leave, rj := s.enter(r, ws, req.TimeoutMS)
	if rj != nil {
		return resp, rj
	}
	defer func() { leave(rj) }()
	res, err := mso.Sweep(c.Source, func(qa int32) (*core.Outcome, error) {
		return c.NewRun().WithContext(ctx).Discover(alg, qa)
	}, mso.Options{Stride: req.Stride, Workers: min(req.Workers, runtime.NumCPU())})
	if aerr := discovery.AbortCause(err); aerr != nil {
		return resp, reject(http.StatusGatewayTimeout, KindDeadline,
			"deadline expired mid-sweep: "+aerr.Err.Error(), 0)
	}
	if err != nil {
		return resp, reject(http.StatusInternalServerError, KindEngineFault, err.Error(), 0)
	}
	g, _ := c.Guarantee(alg)
	return MSOResponse{
		Workload: req.Workload, Algorithm: string(alg),
		MSO: res.MSO, ASO: res.ASO, ArgMax: res.ArgMax,
		Points: len(res.Points), Guarantee: g,
	}, nil
}
