package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ess"
)

// probeSource wraps a workload's contour source to reach exits a healthy
// artifact never takes: delay slows every contour read (a run outlives
// its deadline), empty hides every contour (a discovery errors out), and
// active/peak count the discoveries reading contours at once.
type probeSource struct {
	ess.ContourSource
	delay        time.Duration
	empty        bool
	active, peak atomic.Int64
}

func (p *probeSource) NumContours() int {
	if p.empty {
		return 0
	}
	return p.ContourSource.NumContours()
}

func (p *probeSource) ContourAt(learned []int, ci int) *ess.Contour {
	n := p.active.Add(1)
	defer p.active.Add(-1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	time.Sleep(p.delay)
	return p.ContourSource.ContourAt(learned, ci)
}

// wrapSource republishes a pinned workload's artifact compiled over p,
// which wraps the workload's own source.
func wrapSource(t *testing.T, s *Server, name string, p *probeSource) {
	t.Helper()
	ws := s.workloads[name]
	ws.mu.Lock()
	defer ws.mu.Unlock()
	p.ContourSource = ws.compiled.Source
	c, err := core.CompileSource(p, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ws.compiled = c
}

// postBody posts raw bytes as they are, or anything else as JSON.
func postBody(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	raw, ok := body.([]byte)
	if !ok {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return rec, rec.Body.Bytes()
}

// TestEveryExitSettles drives every exit of /discover and /mso from a
// breaker one Allow away from half-open, so a request that reaches the
// breaker is its probe. Each exit must answer with its typed status and
// kind, leave the breaker in the state its verdict implies — open when
// the breaker was never consulted or the probe failed, half-open when
// the request was withdrawn, closed when it succeeded — and hold nothing
// afterwards: no probe slot, no execution slot, no in-flight count, no
// queue seat.
func TestEveryExitSettles(t *testing.T) {
	eq := func(t *testing.T, s *Server) *workloadState { return halfOpen(s, "EQ") }
	tenant := func(t *testing.T, s *Server) *workloadState {
		makeTenant(t, s, "2D_Q91")
		return halfOpen(s, "2D_Q91")
	}
	draining := func(t *testing.T, s *Server) *workloadState {
		s.draining.Store(true)
		return eq(t, s)
	}
	building := func(t *testing.T, s *Server) *workloadState {
		ws := eq(t, s)
		ws.mu.Lock()
		ws.compiled = nil
		ws.mu.Unlock()
		return ws
	}
	breakerOpen := func(t *testing.T, s *Server) *workloadState {
		ws := eq(t, s)
		ws.breaker.mu.Lock()
		ws.breaker.openedAt = s.cfg.Now()
		ws.breaker.mu.Unlock()
		return ws
	}
	slotTaken := func(t *testing.T, s *Server) *workloadState {
		s.sem <- struct{}{}
		t.Cleanup(func() { <-s.sem })
		return eq(t, s)
	}
	queueFull := func(t *testing.T, s *Server) *workloadState {
		s.queued.Store(int64(s.cfg.MaxQueue))
		return slotTaken(t, s)
	}
	probe := func(p *probeSource) func(*testing.T, *Server) *workloadState {
		return func(t *testing.T, s *Server) *workloadState {
			wrapSource(t, s, "EQ", p)
			return eq(t, s)
		}
	}
	compileFails := func(t *testing.T, s *Server) *workloadState {
		ws := tenant(t, s)
		ws.spec.Schema = "no-such-schema"
		return ws
	}
	compileStalls := func(t *testing.T, s *Server) *workloadState {
		ws := tenant(t, s)
		s.flights.mu.Lock()
		s.flights.m[ws.sigKey] = &flight{done: make(chan struct{})} // a leader that never finishes
		s.flights.mu.Unlock()
		return ws
	}
	repeat, _ := json.Marshal(DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 3})
	warmed := func(t *testing.T, s *Server) *workloadState {
		for i := 0; i < 2; i++ { // the doorkeeper records, the second admits
			if rec, body := postBody(t, s.Handler(), "/discover", repeat); rec.Code != http.StatusOK {
				t.Fatalf("warm-up: status %d: %s", rec.Code, body)
			}
		}
		return eq(t, s)
	}

	ok := DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 1}
	with := func(edit func(*DiscoverRequest)) DiscoverRequest {
		req := ok
		edit(&req)
		return req
	}
	sweep := MSORequest{Workload: "EQ", Algorithm: "sb", Stride: 5}
	sweepWith := func(edit func(*MSORequest)) MSORequest {
		req := sweep
		edit(&req)
		return req
	}

	for _, tc := range []struct {
		path, name string
		setup      func(*testing.T, *Server) *workloadState
		body       any
		code       int
		kind       string // "" for a DiscoverResponse or MSOResponse body
		breaker    string
	}{
		{"/discover", "draining", draining, ok, 503, KindDraining, "open"},
		{"/discover", "bad body", eq, []byte("{"), 400, KindBadRequest, "open"},
		{"/discover", "unknown strategy", eq, with(func(r *DiscoverRequest) { r.Strategy = "nope" }), 400, KindBadRequest, "open"},
		{"/discover", "negative exec_workers", eq, with(func(r *DiscoverRequest) { r.ExecWorkers = -1 }), 400, KindBadRequest, "open"},
		{"/discover", "unknown workload", eq, with(func(r *DiscoverRequest) { r.Workload = "nope" }), 404, KindNotFound, "open"},
		{"/discover", "still building", building, ok, 503, KindBuilding, "open"},
		{"/discover", "pinned qa out of range", eq, with(func(r *DiscoverRequest) { r.QA = 9999 }), 400, KindBadRequest, "open"},
		{"/discover", "on-demand qa out of range", tenant, DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: 1 << 20}, 400, KindBadRequest, "half-open"},
		{"/discover", "breaker open", breakerOpen, ok, 503, KindBreakerOpen, "open"},
		{"/discover", "shed", queueFull, ok, 429, KindShed, "half-open"},
		{"/discover", "queued deadline", slotTaken, with(func(r *DiscoverRequest) { r.TimeoutMS = 5 }), 504, KindDeadline, "half-open"},
		{"/discover", "serve.run fault", eq, with(func(r *DiscoverRequest) { r.FaultRate, r.FaultSeed = 1, 1 }), 500, KindEngineFault, "open"},
		{"/discover", "compile fault", compileFails, DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: 1}, 500, KindBuildFailed, "open"},
		{"/discover", "compile deadline", compileStalls, DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: 1, TimeoutMS: 20}, 504, KindDeadline, "half-open"},
		{"/discover", "run abort", probe(&probeSource{delay: 5 * time.Millisecond}), with(func(r *DiscoverRequest) { r.TimeoutMS = 1 }), 504, "", "half-open"},
		{"/discover", "run error", probe(&probeSource{empty: true}), ok, 500, KindEngineFault, "open"},
		{"/discover", "success", eq, ok, 200, "", "closed"},
		{"/discover", "outcome-cache hit", warmed, append(bytes.Clone(repeat), ' '), 200, "", "open"},
		{"/discover", "front-table hit", warmed, repeat, 200, "", "open"},

		{"/mso", "draining", draining, sweep, 503, KindDraining, "open"},
		{"/mso", "bad body", eq, []byte("{"), 400, KindBadRequest, "open"},
		{"/mso", "unknown algorithm", eq, sweepWith(func(r *MSORequest) { r.Algorithm = "nope" }), 400, KindBadRequest, "open"},
		{"/mso", "negative stride", eq, sweepWith(func(r *MSORequest) { r.Stride = -1 }), 400, KindBadRequest, "open"},
		{"/mso", "unknown workload", eq, sweepWith(func(r *MSORequest) { r.Workload = "nope" }), 404, KindNotFound, "open"},
		{"/mso", "still building", building, sweep, 503, KindBuilding, "open"},
		{"/mso", "on-demand not resident", tenant, sweepWith(func(r *MSORequest) { r.Workload = "2D_Q91" }), 503, KindBuilding, "open"},
		{"/mso", "breaker open", breakerOpen, sweep, 503, KindBreakerOpen, "open"},
		{"/mso", "shed", queueFull, sweep, 429, KindShed, "half-open"},
		{"/mso", "queued deadline", slotTaken, sweepWith(func(r *MSORequest) { r.TimeoutMS = 5 }), 504, KindDeadline, "half-open"},
		{"/mso", "sweep abort", probe(&probeSource{delay: 5 * time.Millisecond}), sweepWith(func(r *MSORequest) { r.TimeoutMS = 1 }), 504, KindDeadline, "half-open"},
		{"/mso", "sweep error", probe(&probeSource{empty: true}), sweep, 500, KindEngineFault, "open"},
		{"/mso", "success", eq, sweep, 200, "", "closed"},
	} {
		t.Run(tc.path[1:]+"/"+tc.name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.MaxConcurrent, cfg.MaxQueue = 1, 1
			cfg.AllowRequestFaults = true
			s := newTestServer(t, cfg)
			ws := tc.setup(t, s)
			parked, slots := s.queued.Load(), len(s.sem)

			rec, body := postBody(t, s.Handler(), tc.path, tc.body)
			var got struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal(body, &got); err != nil || rec.Code != tc.code || got.Kind != tc.kind {
				t.Fatalf("status %d kind %q, want %d %q: %s", rec.Code, got.Kind, tc.code, tc.kind, body)
			}
			if tc.breaker == "half-open" {
				assertNothingHeld(t, s, ws, tc.name, parked)
			} else {
				ws.breaker.mu.Lock()
				state, probing := ws.breaker.state.String(), ws.breaker.probing
				ws.breaker.mu.Unlock()
				if state != tc.breaker || probing {
					t.Fatalf("breaker %s probing=%v, want %s with no probe held", state, probing, tc.breaker)
				}
				if n, q := s.metrics.inflight.Load(), s.queued.Load(); n != 0 || q != parked {
					t.Fatalf("in flight %d, queue depth %d; want 0 and %d", n, q, parked)
				}
			}
			if n := len(s.sem); n != slots {
				t.Fatalf("%d execution slots taken after the request, want %d", n, slots)
			}
		})
	}
}
