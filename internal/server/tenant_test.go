package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/workload"
)

// tenantConfig is testConfig with room for a 16-strong herd: the
// admission queue must hold every member or shed turns a coalescing
// test into a retry test.
func tenantConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.MaxConcurrent = 8
	cfg.MaxQueue = 64
	return cfg
}

// makeTenant materializes the named registered workload as an
// on-demand tenant state without serving a request.
func makeTenant(t *testing.T, s *Server, name string) *workloadState {
	t.Helper()
	req := DiscoverRequest{Workload: name}
	ws, rj := s.resolveWorkload(&req)
	if rj != nil {
		t.Fatalf("resolveWorkload(%s): %s", name, rj.msg)
	}
	if !ws.onDemand {
		t.Fatalf("workload %s resolved as pinned", name)
	}
	return ws
}

// A workload outside the pinned set is admitted on demand: the first
// request compiles its artifact into the signature-keyed cache, the
// second is a pure cache hit, and /workloads reports the tenant as
// resident.
func TestOnDemandTenantCompilesOnceAndCaches(t *testing.T) {
	s := newTestServer(t, tenantConfig(t))
	for i := 0; i < 2; i++ {
		// Distinct grid points: identical requests would be absorbed by
		// the outcome cache before ever consulting the artifact cache,
		// which is the layer under test here.
		rec, body := postJSON(t, s.Handler(), "/discover",
			DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: int32(3 + i)})
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, body)
		}
		var resp DiscoverResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Workload != "2D_Q91" || !resp.Completed {
			t.Fatalf("request %d: response %+v", i, resp)
		}
	}
	if got := s.CompileCount("2D_Q91"); got != 1 {
		t.Fatalf("compiles %d, want 1 (second request must hit the cache)", got)
	}
	if cs := s.CacheStats(); cs.Hits < 1 || cs.Entries != 1 {
		t.Fatalf("cache stats %+v, want >=1 hit and exactly 1 entry", cs)
	}

	rec, body := getBody(t, s.Handler(), "/workloads")
	if rec.Code != http.StatusOK {
		t.Fatalf("/workloads: %d", rec.Code)
	}
	if !strings.Contains(body, `"on-demand"`) || !strings.Contains(body, `"resident"`) {
		t.Fatalf("/workloads missing on-demand resident tenant:\n%s", body)
	}
}

// Requests may identify their workload by SQL text alone: the server
// canonicalizes, signs, and resolves against the registered specs. The
// Q91 dimensionality family shares one SQL body, so its signature is
// ambiguous until the workload field disambiguates.
func TestResolveWorkloadBySQL(t *testing.T) {
	s := newTestServer(t, tenantConfig(t))

	eq, err := workload.ByName("EQ")
	if err != nil {
		t.Fatal(err)
	}
	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{SQL: eq.SQL, Algorithm: "sb", QA: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("EQ by SQL: status %d: %s", rec.Code, body)
	}
	var resp DiscoverResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workload != "EQ" {
		t.Fatalf("EQ by SQL resolved to %q", resp.Workload)
	}

	q91, err := workload.ByName("2D_Q91")
	if err != nil {
		t.Fatal(err)
	}
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{SQL: q91.SQL, Algorithm: "sb", QA: 3})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ambiguous SQL: status %d: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != KindBadRequest || !strings.Contains(er.Error, "2D_Q91") {
		t.Fatalf("ambiguous SQL error %+v must name the candidates", er)
	}

	// The workload field disambiguates the shared body.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{SQL: q91.SQL, Workload: "2D_Q91", Algorithm: "sb", QA: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("disambiguated SQL: status %d: %s", rec.Code, body)
	}

	// A mismatched workload/SQL pair is rejected, not silently served.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{SQL: q91.SQL, Workload: "EQ", Algorithm: "sb", QA: 3})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mismatched pair: status %d: %s", rec.Code, body)
	}

	// A signable query nobody registered is a 404.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{SQL: "select x from nowhere where y = 1", Algorithm: "sb"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown SQL: status %d: %s", rec.Code, body)
	}
}

// A request refused on a field that needs no workload must not register
// the on-demand tenant it names: the tenant would stay listed in
// /workloads and rqp_breaker_state for the server's lifetime. Such fields
// are checked before the name, so an unknown name is a 400 here too.
func TestRefusedRequestRegistersNoTenant(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	for _, req := range []DiscoverRequest{
		{Workload: "2D_Q91", ExecWorkers: -1},
		{Workload: "2D_Q91", Strategy: "nope"},
		{Workload: "nope", ExecWorkers: -1},
	} {
		rec, body := postJSON(t, s.Handler(), "/discover", req)
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || rec.Code != http.StatusBadRequest || er.Kind != KindBadRequest {
			t.Fatalf("%+v: status %d, want a typed 400: %s", req, rec.Code, body)
		}
	}
	if _, workloads := getBody(t, s.Handler(), "/workloads"); strings.Contains(workloads, "2D_Q91") {
		t.Fatalf("refused request registered a tenant:\n%s", workloads)
	}
	if page := metricsPage(t, s); strings.Contains(page, `workload="2D_Q91"`) {
		t.Fatalf("refused request's tenant has a breaker series:\n%s", page)
	}
}

// Satellite: a tripped breaker rejects a coalesced herd with 503
// exactly once each — the rejection happens before the compile path,
// so the herd costs zero compiles and zero cache traffic.
func TestTrippedBreakerRejectsCoalescedHerd(t *testing.T) {
	cfg := tenantConfig(t)
	cfg.BreakerThreshold = 1
	s := newTestServer(t, cfg)
	ws := makeTenant(t, s, "2D_Q91")
	ws.breaker.Report(false) // threshold 1: trips open
	if st := ws.breaker.State(); st != "open" {
		t.Fatalf("breaker state %s, want open", st)
	}

	const herd = 16
	codes := make([]int, herd)
	kinds := make([]string, herd)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec, body := postJSON(t, s.Handler(), "/discover",
				DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: 3})
			codes[i] = rec.Code
			var er ErrorResponse
			json.Unmarshal(body, &er)
			kinds[i] = er.Kind
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusServiceUnavailable || kinds[i] != KindBreakerOpen {
			t.Fatalf("member %d: status %d kind %q, want one 503/%s each", i, codes[i], kinds[i], KindBreakerOpen)
		}
	}
	if got := s.CompileCount("2D_Q91"); got != 0 {
		t.Fatalf("tripped breaker allowed %d compiles, want 0", got)
	}
	if cs := s.CacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("tripped breaker touched the cache: %+v", cs)
	}
}

// Satellite: half-open recovery admits exactly one probe through the
// coalesced compile path. The probe pays the single compile; herd
// members racing it are rejected with 503 while it is in flight and
// served from the cache once it closes the breaker — either way, one
// compile total.
func TestHalfOpenAdmitsOneProbeThroughCompile(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	cfg := tenantConfig(t)
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Second
	cfg.Now = clk.Now
	s := newTestServer(t, cfg)
	ws := makeTenant(t, s, "2D_Q91")
	ws.breaker.Report(false)

	// Open breaker: typed 503 with a retry hint, before any compile.
	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: 3})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != KindBreakerOpen || er.RetryAfterMS <= 0 {
		t.Fatalf("open breaker error %+v, want %s with retry hint", er, KindBreakerOpen)
	}

	clk.Advance(2 * time.Second) // cooldown elapsed: next Allow is the probe

	const herd = 16
	codes := make([]int, herd)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec, _ := postJSON(t, s.Handler(), "/discover",
				DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: 3})
			codes[i] = rec.Code
		}(i)
	}
	close(start)
	wg.Wait()

	var oks, rejected int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			oks++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("member %d: unexpected status %d", i, code)
		}
	}
	// Exactly one probe is admitted while half-open; members arriving
	// after the probe closed the breaker are legitimate cache-hit 200s,
	// so the hard invariants are the compile count and the final state.
	if oks < 1 || oks+rejected != herd {
		t.Fatalf("herd outcome %d ok / %d rejected of %d", oks, rejected, herd)
	}
	if got := s.CompileCount("2D_Q91"); got != 1 {
		t.Fatalf("half-open herd paid %d compiles, want exactly 1 (the probe)", got)
	}
	if st := ws.breaker.State(); st != "closed" {
		t.Fatalf("breaker state %s after successful probe, want closed", st)
	}

	// Recovered: a follow-up request is a plain cache hit.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "2D_Q91", Algorithm: "sb", QA: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery: status %d: %s", rec.Code, body)
	}
	if got := s.CompileCount("2D_Q91"); got != 1 {
		t.Fatalf("post-recovery compile count %d, want still 1", got)
	}
}

// Chaos site cache.evict: an injected eviction makes the request see a
// miss and pay a fresh compile — and nothing worse.
func TestArtifactForChaosEvictRecompiles(t *testing.T) {
	s := newTestServer(t, tenantConfig(t))
	ws := makeTenant(t, s, "2D_Q91")
	ctx := context.Background()

	if _, err := s.artifactFor(ctx, ws, nil); err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(faultinject.Config{
		Seed:       11,
		Rates:      map[faultinject.Site]float64{faultinject.SiteCacheEvict: 1},
		MaxPerSite: 1,
	})
	if _, err := s.artifactFor(ctx, ws, in); err != nil {
		t.Fatal(err)
	}
	if got := s.CompileCount("2D_Q91"); got != 2 {
		t.Fatalf("compiles %d, want 2 (evict forces a rebuild)", got)
	}
	if cs := s.CacheStats(); cs.Evictions != 1 {
		t.Fatalf("cache stats %+v, want exactly 1 eviction", cs)
	}
	if got := s.metrics.chaosEvicts.Load(); got != 1 {
		t.Fatalf("chaos evict metric %d, want 1", got)
	}
}

// Chaos site coalesce.leader: a transient leader fault is retried with
// backoff and does not poison the flight — the caller still gets the
// artifact, at one successful compile.
func TestArtifactForLeaderFaultRetries(t *testing.T) {
	s := newTestServer(t, tenantConfig(t))
	ws := makeTenant(t, s, "2D_Q91")
	in := faultinject.New(faultinject.Config{
		Seed:       13,
		Rates:      map[faultinject.Site]float64{faultinject.SiteCoalesceLeader: 1},
		MaxPerSite: 1, // the fault clears on the first retry
	})
	art, err := s.artifactFor(context.Background(), ws, in)
	if err != nil || art == nil {
		t.Fatalf("artifactFor after transient leader fault: %v", err)
	}
	if got := s.CompileCount("2D_Q91"); got != 1 {
		t.Fatalf("compiles %d, want 1", got)
	}
	if got := s.metrics.leaderFaults.Load(); got != 1 {
		t.Fatalf("leader fault metric %d, want 1", got)
	}
}

// A persistent leader fault is not retried: retrying a deterministic
// failure only burns the attempt budget.
func TestArtifactForPersistentFaultFailsFast(t *testing.T) {
	s := newTestServer(t, tenantConfig(t))
	ws := makeTenant(t, s, "2D_Q91")
	in := faultinject.New(faultinject.Config{
		Seed:           17,
		Rates:          map[faultinject.Site]float64{faultinject.SiteCoalesceLeader: 1},
		PersistentFrac: 1,
	})
	if _, err := s.artifactFor(context.Background(), ws, in); err == nil {
		t.Fatal("persistent leader fault returned no error")
	} else if faultinject.IsTransient(err) {
		t.Fatalf("persistent fault classified transient: %v", err)
	}
	if got := s.CompileCount("2D_Q91"); got != 0 {
		t.Fatalf("compiles %d, want 0", got)
	}
}
