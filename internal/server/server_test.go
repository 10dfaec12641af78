package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
)

// fakeClock is an injectable breaker clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(3, 10*time.Second, clk.Now)

	if ok, _ := b.Allow(); !ok {
		t.Fatal("fresh breaker must be closed")
	}
	// Two failures + success: counter resets, still closed.
	b.Report(false)
	b.Report(false)
	b.Report(true)
	for i := 0; i < 2; i++ {
		b.Report(false)
	}
	if b.State() != "closed" {
		t.Fatalf("2 consecutive failures after reset: state %s", b.State())
	}
	b.Report(false) // third consecutive: trips
	if b.State() != "open" {
		t.Fatalf("threshold reached: state %s, want open", b.State())
	}
	if ok, wait := b.Allow(); ok || wait <= 0 {
		t.Fatalf("open breaker allowed a request (wait %v)", wait)
	}

	// Cooldown elapses: exactly one half-open probe.
	clk.Advance(11 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("cooldown elapsed: probe must be allowed")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second request during probe must be rejected")
	}
	// Probe fails: reopen, full cooldown again.
	b.Report(false)
	if b.State() != "open" {
		t.Fatalf("failed probe: state %s, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("reopened breaker allowed a request")
	}
	clk.Advance(11 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("second probe must be allowed")
	}
	// A canceled probe (deadline abort) releases the slot without
	// closing or reopening.
	b.Cancel()
	if b.State() != "half-open" {
		t.Fatalf("canceled probe: state %s, want half-open", b.State())
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe slot must be free after cancel")
	}
	b.Report(true)
	if b.State() != "closed" {
		t.Fatalf("successful probe: state %s, want closed", b.State())
	}
}

// testConfig serves the EQ example at a resolution small enough for
// sub-second compiles.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Workloads: []string{"EQ"},
		Scale:     0.2,
		Res:       6,
		Logf:      t.Logf,
	}
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestDiscoverEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	for _, alg := range []string{"planbouquet", "spillbound", "alignedbound"} {
		rec, body := postJSON(t, s.Handler(), "/discover",
			DiscoverRequest{Workload: "EQ", Algorithm: alg, QA: 7})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", alg, rec.Code, body)
		}
		var resp DiscoverResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Completed || resp.SubOpt < 1 || resp.Steps == 0 {
			t.Fatalf("%s: implausible outcome %+v", alg, resp)
		}
	}

	// Typed rejections.
	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "nope", Algorithm: "spillbound"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d: %s", rec.Code, body)
	}
	rec, _ = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "wat"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d", rec.Code)
	}
	rec, _ = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 9999})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-grid qa: status %d", rec.Code)
	}
}

func TestMSOEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	rec, body := postJSON(t, s.Handler(), "/mso",
		MSORequest{Workload: "EQ", Algorithm: "spillbound", Stride: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp MSOResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MSO < 1 || resp.MSO > resp.Guarantee || resp.Points == 0 {
		t.Fatalf("implausible MSO result %+v", resp)
	}
}

func TestAdmissionQueueSheds(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 1
	s := newTestServer(t, cfg)

	// Occupy the only slot out-of-band, then fill the queue: the next
	// admit must shed, deterministically.
	s.sem <- struct{}{}
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	defer cancelQueued()
	entered := make(chan struct{})
	go func() {
		close(entered)
		release, shed, err := s.admit(queuedCtx)
		if release != nil {
			release()
		}
		_ = shed
		_ = err
	}()
	<-entered
	// Wait until the goroutine is counted as queued.
	for i := 0; s.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.queued.Load() != 1 {
		t.Fatalf("queued %d, want 1", s.queued.Load())
	}
	release, shed, err := s.admit(context.Background())
	if release != nil || !shed || err != nil {
		t.Fatalf("full queue must shed (release=%v shed=%v err=%v)", release != nil, shed, err)
	}

	// The HTTP surface translates the shed into 429 + Retry-After, on
	// both admitted endpoints, and hands back what the request took on
	// its way in: with the circuit half-open each request is the probe,
	// so a shed that forgot its Cancel would wedge the breaker.
	ws := halfOpen(s, "EQ")
	for _, ep := range admittedEndpoints {
		rec, body := postJSON(t, s.Handler(), ep.path, ep.body(0))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: shed status %d: %s", ep.path, rec.Code, body)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: shed response missing Retry-After", ep.path)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Kind != KindShed {
			t.Fatalf("%s: shed response untyped: %s", ep.path, body)
		}
		assertNothingHeld(t, s, ws, ep.path, 1) // the out-of-band waiter
	}
	cancelQueued()
	<-s.sem // release the out-of-band slot
}

// admittedEndpoints are the two handlers behind the shared admission
// prologue, each with a valid request for the EQ workload.
var admittedEndpoints = []struct {
	path string
	body func(timeoutMS int64) any
}{
	{"/discover", func(ms int64) any {
		return DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 1, TimeoutMS: ms}
	}},
	{"/mso", func(ms int64) any {
		return MSORequest{Workload: "EQ", Algorithm: "sb", TimeoutMS: ms}
	}},
}

// halfOpen puts the workload's breaker one Allow away from half-open
// (open, cooldown long past), so the next admitted request is the probe.
func halfOpen(s *Server, name string) *workloadState {
	ws := s.workloads[name]
	ws.breaker.mu.Lock()
	ws.breaker.state, ws.breaker.openedAt, ws.breaker.probing = breakerOpen, time.Time{}, false
	ws.breaker.mu.Unlock()
	return ws
}

// assertNothingHeld checks that a rejected request returned everything
// the prologue handed it: no in-flight count, no queue seat beyond the
// waiters the test parked itself, and no breaker probe slot.
func assertNothingHeld(t *testing.T, s *Server, ws *workloadState, path string, parked int64) {
	t.Helper()
	if n := s.metrics.inflight.Load(); n != 0 {
		t.Fatalf("%s: %d requests still counted in flight", path, n)
	}
	if n := s.queued.Load(); n != parked {
		t.Fatalf("%s: queue depth %d, want %d", path, n, parked)
	}
	ws.breaker.mu.Lock()
	state, probing := ws.breaker.state, ws.breaker.probing
	ws.breaker.mu.Unlock()
	if state != breakerHalfOpen || probing {
		t.Fatalf("%s: breaker %v probing=%v, want half-open with the probe slot returned", path, state, probing)
	}
}

// A deadline that expires while the request waits for an execution slot
// is a typed 504 on both admitted endpoints, and returns the queue seat
// and the breaker probe slot it held.
func TestQueuedDeadlineReleasesEverything(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 4
	s := newTestServer(t, cfg)
	s.sem <- struct{}{} // occupy the only slot out-of-band
	ws := halfOpen(s, "EQ")
	for _, ep := range admittedEndpoints {
		rec, body := postJSON(t, s.Handler(), ep.path, ep.body(5))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: queued-deadline status %d: %s", ep.path, rec.Code, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Kind != KindDeadline {
			t.Fatalf("%s: queued-deadline response untyped: %s", ep.path, body)
		}
		assertNothingHeld(t, s, ws, ep.path, 0)
	}
	<-s.sem
	// The slot and the probe are both free: the next request runs, and
	// as the half-open probe it closes the circuit.
	if rec, body := postJSON(t, s.Handler(), "/discover", admittedEndpoints[0].body(0)); rec.Code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", rec.Code, body)
	}
	if got := ws.breaker.State(); got != "closed" {
		t.Fatalf("breaker %s after a successful probe, want closed", got)
	}
}

func TestDeadlineReturnsPartialOutcome(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExecLatency = 20 * time.Millisecond
	s := newTestServer(t, cfg)

	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "spillbound", QA: 5, TimeoutMS: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp DiscoverResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Aborted == "" {
		t.Fatalf("504 must carry the abort cause: %s", body)
	}
	if resp.Completed {
		t.Fatal("aborted run cannot be completed")
	}
	found := false
	for _, d := range resp.Degradations {
		if d.Kind == "exec-abandoned" {
			found = true
		}
		if d.Kind == "lost-observation" {
			t.Fatalf("deadline abort misrecorded as lost-observation: %s", body)
		}
	}
	if !found {
		t.Fatalf("partial outcome missing exec-abandoned degradation: %s", body)
	}
}

func TestBreakerTripsAndRecoversOverHTTP(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	cfg := testConfig(t)
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 10 * time.Second
	cfg.Now = clk.Now
	cfg.AllowRequestFaults = true
	s := newTestServer(t, cfg)

	// With request faults explicitly allowed, fault_rate=1 makes
	// SiteServeRun fire on every request: three consecutive engine
	// faults trip the EQ circuit.
	for i := 0; i < 3; i++ {
		rec, body := postJSON(t, s.Handler(), "/discover",
			DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 2,
				FaultSeed: uint64(i), FaultRate: 1})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("fault %d: status %d: %s", i, rec.Code, body)
		}
	}
	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 2})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status %d: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != KindBreakerOpen {
		t.Fatalf("open circuit response untyped: %s", body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("open circuit missing Retry-After")
	}

	// Cooldown passes: the half-open probe (fault-free) succeeds and
	// closes the circuit.
	clk.Advance(11 * time.Second)
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("probe: status %d: %s", rec.Code, body)
	}
	if st := s.workloads["EQ"].breaker.State(); st != "closed" {
		t.Fatalf("after successful probe: breaker %s", st)
	}
}

// A server started without chaos armed must ignore client-supplied
// fault_rate: otherwise any unauthenticated client could inject faults
// and trip the shared breaker, denying service to everyone.
func TestDisarmedServerIgnoresRequestFaults(t *testing.T) {
	cfg := testConfig(t)
	cfg.BreakerThreshold = 2
	s := newTestServer(t, cfg)

	for i := 0; i < 3; i++ {
		rec, body := postJSON(t, s.Handler(), "/discover",
			DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 2,
				FaultSeed: uint64(i), FaultRate: 1})
		if rec.Code != http.StatusOK {
			t.Fatalf("disarmed server honored fault_rate: status %d: %s", rec.Code, body)
		}
	}
	if st := s.workloads["EQ"].breaker.State(); st != "closed" {
		t.Fatalf("breaker %s after client-supplied faults on disarmed server", st)
	}
}

// A negative stride must be a typed 400, not an infinite enumeration
// loop inside mso.Sweep.
func TestMSORejectsNegativeStrideAndWorkers(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	for _, req := range []MSORequest{
		{Workload: "EQ", Algorithm: "sb", Stride: -1},
		{Workload: "EQ", Algorithm: "sb", Workers: -4},
	} {
		rec, body := postJSON(t, s.Handler(), "/mso", req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400: %s", req, rec.Code, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Kind != KindBadRequest {
			t.Fatalf("%+v: rejection untyped: %s", req, body)
		}
	}

	// Over-asking is a preference: workers is clamped to NumCPU, what
	// workers: 0 gets, so one admitted sweep never runs a discovery per
	// grid point at once.
	p := &probeSource{delay: time.Millisecond}
	wrapSource(t, s, "EQ", p)
	if runtime.NumCPU() >= p.Geometry().NumPoints() {
		t.Skipf("%d CPUs cover all %d grid points; the clamp is invisible", runtime.NumCPU(), p.Geometry().NumPoints())
	}
	rec, body := postJSON(t, s.Handler(), "/mso", MSORequest{Workload: "EQ", Algorithm: "sb", Workers: 1 << 30})
	if rec.Code != http.StatusOK {
		t.Fatalf("workers 1<<30: status %d: %s", rec.Code, body)
	}
	if got := p.peak.Load(); got > int64(runtime.NumCPU()) {
		t.Fatalf("%d discoveries ran at once under one admission slot, want at most NumCPU = %d", got, runtime.NumCPU())
	}
}

// A snapshot persisted at one resolution must not be served after the
// operator changes -res: the mismatch is a miss that triggers a rebuild
// at the configured resolution.
func TestSnapshotResolutionMismatchRebuilds(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.SnapshotDir = dir

	s1 := newTestServer(t, cfg)
	if got := s1.workloads["EQ"].compiled.Source.Geometry().Res; got != cfg.Res {
		t.Fatalf("first boot res %d, want %d", got, cfg.Res)
	}

	cfg.Res = 5 // operator reconfigures the grid
	s2 := newTestServer(t, cfg)
	ws := s2.workloads["EQ"]
	ws.mu.RLock()
	warm, quarantined := ws.warmLoaded, ws.quarantined
	ws.mu.RUnlock()
	if warm {
		t.Fatal("stale-resolution snapshot must not warm-load")
	}
	if quarantined != "" {
		t.Fatal("resolution mismatch is a config change, not corruption; no quarantine expected")
	}
	if got := ws.compiled.Source.Geometry().Res; got != 5 {
		t.Fatalf("rebuild served res %d, want 5", got)
	}
	// The rebuild overwrote the snapshot at the new resolution: the next
	// boot warm-loads it.
	s3 := newTestServer(t, cfg)
	if !s3.workloads["EQ"].warmLoaded {
		t.Fatal("rebuilt snapshot should warm-load at the new resolution")
	}
	if got := s3.workloads["EQ"].compiled.Source.Geometry().Res; got != 5 {
		t.Fatalf("warm-loaded res %d, want 5", got)
	}
}

func TestSnapshotWarmLoadAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.SnapshotDir = dir
	snap := filepath.Join(dir, "EQ.snap")

	// First boot: cold build, snapshot persisted.
	s1 := newTestServer(t, cfg)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("first boot did not persist a snapshot: %v", err)
	}
	if s1.workloads["EQ"].warmLoaded {
		t.Fatal("first boot cannot be warm")
	}

	// Second boot: warm load.
	s2 := newTestServer(t, cfg)
	if !s2.workloads["EQ"].warmLoaded {
		t.Fatal("second boot should warm-load the snapshot")
	}

	// Corrupt the snapshot: third boot quarantines it, rebuilds, and
	// persists a fresh one.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, cfg)
	ws := s3.workloads["EQ"]
	ws.mu.RLock()
	quarantined, warm := ws.quarantined, ws.warmLoaded
	ws.mu.RUnlock()
	if warm {
		t.Fatal("corrupt snapshot must not warm-load")
	}
	if quarantined == "" {
		t.Fatal("corrupt snapshot was not quarantined")
	}
	if _, err := os.Stat(quarantined); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if ws.status() != "ready" {
		t.Fatalf("rebuild after quarantine: status %s", ws.status())
	}
	// The rebuilt snapshot must be loadable again.
	s4 := newTestServer(t, cfg)
	if !s4.workloads["EQ"].warmLoaded {
		t.Fatal("rebuilt snapshot should warm-load on the next boot")
	}
}

func TestGracefulDrain(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExecLatency = 5 * time.Millisecond
	cfg.DrainTimeout = 5 * time.Second
	// Nine executions at 5 ms each: the drain starts mid-run.
	drainInFlight(t, newTestServer(t, cfg), DiscoverRequest{Workload: "EQ", Algorithm: "spillbound", QA: 35})
}

// TestGracefulDrainLazy drains a lazy server with a snapshot directory
// while an AlignedBound discovery is in flight. The request still
// completes, feeds its observations back (a refinement round and a
// delta appended to the snapshot), and leaves no goroutine behind.
func TestGracefulDrainLazy(t *testing.T) {
	cfg := lazyConfig(t)
	cfg.SnapshotDir = t.TempDir()
	cfg.ExecLatency = 5 * time.Millisecond
	cfg.DrainTimeout = 5 * time.Second
	s := newTestServer(t, cfg)
	snap := filepath.Join(cfg.SnapshotDir, "EQ.lazy.snap")
	base, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	drainInFlight(t, s, DiscoverRequest{Workload: "EQ", Algorithm: "alignedbound", QA: 30})

	if s.metrics.refineObs.Load() == 0 {
		t.Fatal("the in-flight discovery fed no observations")
	}
	if n := s.workloads["EQ"].lazy.Profile().Refinements; n == 0 {
		t.Fatal("the in-flight discovery applied no refinement")
	}
	grown, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Size() <= base.Size() {
		t.Fatal("the in-flight discovery appended no delta")
	}
}

// drainInFlight serves s on a loopback listener, cancels it while req is
// in flight, and checks that the request completes, the drain finishes,
// new connections are refused, and the goroutine count returns to where
// it was before Serve.
func drainInFlight(t *testing.T, s *Server, req DiscoverRequest) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	before := runtime.NumGoroutine()
	go func() { served <- s.Serve(ctx, l) }()
	base := "http://" + l.Addr().String()

	// Launch an in-flight discovery, then trigger the drain mid-flight.
	type result struct {
		code int
		body []byte
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(req)
		resp, err := http.Post(base+"/discover", "application/json", bytes.NewReader(raw))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		inflight <- result{code: resp.StatusCode, body: buf.Bytes()}
	}()
	// Trigger the drain only once the request is inside the handler.
	for deadline := time.Now().Add(5 * time.Second); s.metrics.inflight.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", res.code, res.body)
	}
	var resp DiscoverResponse
	if err := json.Unmarshal(res.body, &resp); err != nil || !resp.Completed {
		t.Fatalf("in-flight request returned a broken outcome: %s", res.body)
	}

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not finish within the timeout")
	}
	if !s.Draining() {
		t.Fatal("server should report draining after shutdown")
	}
	// New connections are refused after drain.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("post-drain connection should be refused")
	}
	// Nothing the served request started outlives the drain: once the
	// client's idle connections close, the goroutine count is back to
	// where it was before Serve.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked by the drain: %d before Serve, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPprofHandler(t *testing.T) {
	h := PprofHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d, want 200", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("goroutine")) {
		t.Fatalf("pprof index missing profile listing: %.200s", rec.Body.String())
	}
	// The service mux must NOT expose the profiling endpoints.
	s := newTestServer(t, Config{Workloads: []string{"EQ"}, Scale: 0.05})
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code == http.StatusOK {
		t.Fatal("service mux should not serve /debug/pprof/")
	}
}

// The exec_workers knob: negative values are typed 400s, over-asking is
// clamped to the configured cap (a preference, like timeouts), and the
// reservation gauge pair is exported on /metrics.
func TestDiscoverExecWorkers(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxExecWorkers = 4
	s := newTestServer(t, cfg)

	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 7, ExecWorkers: -1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative exec_workers: status %d: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != KindBadRequest || !strings.Contains(er.Error, "exec_workers") {
		t.Fatalf("negative exec_workers error %+v", er)
	}

	// Over the cap: clamped, not rejected — the discovery still runs.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 7, ExecWorkers: 999})
	if rec.Code != http.StatusOK {
		t.Fatalf("clamped exec_workers: status %d: %s", rec.Code, body)
	}
	var resp DiscoverResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Completed {
		t.Fatalf("clamped exec_workers run did not complete: %+v", resp)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	metricsBody := rec.Body.String()
	for _, want := range []string{
		"# TYPE rqp_exec_workers gauge",
		"rqp_exec_workers 0", // nothing in flight after the requests drained
		"rqp_exec_workers_max 4",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, metricsBody)
		}
	}
}

// Config.MaxExecWorkers defaults to 8 and is hard-capped by the
// engine's MaxWorkers.
func TestMaxExecWorkersDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().MaxExecWorkers; got != 8 {
		t.Fatalf("default MaxExecWorkers = %d, want 8", got)
	}
	if got := (Config{MaxExecWorkers: 10000}).withDefaults().MaxExecWorkers; got != exec.MaxWorkers {
		t.Fatalf("huge MaxExecWorkers = %d, want engine cap %d", got, exec.MaxWorkers)
	}
}
