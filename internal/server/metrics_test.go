package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func getBody(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec, rec.Body.String()
}

// GET /metrics exposes queue depth, in-flight count, per-workload
// breaker state, and per-strategy request counters in the Prometheus
// text format, with a series prebuilt for every registered strategy.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig(t))

	// Route two requests to spillbound (one via /discover, one via
	// /mso's algorithm field) and one to parqo via the strategy field.
	for _, req := range []DiscoverRequest{
		{Workload: "EQ", Algorithm: "sb", QA: 7},
		{Workload: "EQ", Strategy: "parqo", QA: 7},
	} {
		if rec, body := postJSON(t, s.Handler(), "/discover", req); rec.Code != http.StatusOK {
			t.Fatalf("discover %+v: status %d: %s", req, rec.Code, body)
		}
	}
	if rec, body := postJSON(t, s.Handler(), "/mso",
		MSORequest{Workload: "EQ", Algorithm: "spillbound", Stride: 3}); rec.Code != http.StatusOK {
		t.Fatalf("mso: status %d: %s", rec.Code, body)
	}

	rec, body := getBody(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE rqp_queue_depth gauge",
		"rqp_queue_depth 0",
		"# TYPE rqp_inflight gauge",
		"rqp_inflight 0",
		"# TYPE rqp_breaker_state gauge",
		`rqp_breaker_state{workload="EQ"} 0`,
		"# TYPE rqp_requests_total counter",
		`rqp_requests_total{strategy="spillbound"} 2`,
		`rqp_requests_total{strategy="parqo"} 1`,
		"# TYPE rqp_cache_entries gauge",
		"rqp_cache_entries 0",
		"# TYPE rqp_cache_hits_total counter",
		"rqp_compiles_total 0",
		"rqp_coalesce_waits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
	// Every registered strategy gets a series, even with zero traffic.
	for _, name := range core.Strategies() {
		if !strings.Contains(body, fmt.Sprintf("rqp_requests_total{strategy=%q}", name)) {
			t.Fatalf("metrics body missing series for %s:\n%s", name, body)
		}
	}
	// Shard-out gauges only appear with a ring configured.
	if strings.Contains(body, "rqp_peer_up") {
		t.Fatalf("single-replica server exposed rqp_peer_up:\n%s", body)
	}
}

// A lazy workload with a snapshot directory reports how often a request
// appended a delta, and how much: the three rqp_lazy_delta_* counters
// agree with the snapshot file's growth, and a repeat of the same
// request (nothing new settles) moves none of them.
func TestMetricsLazyDeltaCounters(t *testing.T) {
	cfg := lazyConfig(t)
	cfg.SnapshotDir = t.TempDir()
	cfg.OutcomeCacheBytes = -1 // the repeat must reach discovery
	s := newTestServer(t, cfg)
	snap := filepath.Join(cfg.SnapshotDir, "EQ.lazy.snap")
	base, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}

	series := func() (appends, points, bytes int64) {
		t.Helper()
		_, page := getBody(t, s.Handler(), "/metrics")
		for name, dst := range map[string]*int64{
			"rqp_lazy_delta_appends_total": &appends,
			"rqp_lazy_delta_points_total":  &points,
			"rqp_lazy_delta_bytes_total":   &bytes,
		} {
			prefix := name + `{workload="EQ"} `
			i := strings.Index(page, prefix)
			if i < 0 {
				t.Fatalf("metrics page missing %s:\n%s", name, page)
			}
			if _, err := fmt.Sscanf(page[i+len(prefix):], "%d", dst); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return
	}
	if a, p, b := series(); a != 0 || p != 0 || b != 0 {
		t.Fatalf("fresh server: delta counters (%d, %d, %d), want zeros", a, p, b)
	}
	req := DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 9}
	if rec, body := postJSON(t, s.Handler(), "/discover", req); rec.Code != http.StatusOK {
		t.Fatalf("discover: status %d: %s", rec.Code, body)
	}
	grown, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	a, p, b := series()
	if a < 1 || p < 1 || b != grown.Size()-base.Size() {
		t.Fatalf("after one discovery: appends %d, points %d, bytes %d; file grew %d",
			a, p, b, grown.Size()-base.Size())
	}
	if rec, body := postJSON(t, s.Handler(), "/discover", req); rec.Code != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", rec.Code, body)
	}
	if a2, p2, b2 := series(); a2 != a || p2 != p || b2 != b {
		t.Fatalf("repeat appended: (%d, %d, %d) -> (%d, %d, %d)", a, p, b, a2, p2, b2)
	}
}

// The text exposition format wants all lines of one metric in a single
// group, announced by its TYPE line. With two lazy workloads a
// per-workload loop over the rqp_lazy_* series interleaves the families
// and leaves most of them untyped; every sample on the page must follow
// its own family's TYPE line with no other family in between, and no
// family may appear twice.
func TestMetricsExpositionWellFormed(t *testing.T) {
	cfg := lazyConfig(t)
	cfg.Workloads = []string{"EQ", "2D_Q91"}
	s := newTestServer(t, cfg)
	_, page := getBody(t, s.Handler(), "/metrics")

	current := ""
	closed := map[string]bool{} // families whose group has ended
	perFamily := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if closed[name] || name == current {
				t.Fatalf("family %s announced twice:\n%s", name, page)
			}
			closed[current], current = true, name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name != current {
			t.Fatalf("sample %q is outside its family's group (current TYPE: %q):\n%s", line, current, page)
		}
		perFamily[name]++
	}
	for _, name := range []string{
		"rqp_lazy_settled_points", "rqp_lazy_contour_hits_total", "rqp_lazy_contour_misses_total",
		"rqp_lazy_refinement_rounds_total", "rqp_lazy_epoch", "rqp_lazy_delta_appends_total",
		"rqp_lazy_delta_points_total", "rqp_lazy_delta_bytes_total", "rqp_lazy_contours_built_total",
		"rqp_lazy_contour_memo_hits_total", "rqp_lazy_contour_memo_misses_total",
	} {
		if perFamily[name] != 2 {
			t.Errorf("%s has %d samples, want one per lazy workload", name, perFamily[name])
		}
	}
}

// sanitizeLabel escapes exactly the three characters the Prometheus
// text exposition format defines escapes for — backslash, double
// quote, newline — and passes everything else (tabs included) through
// verbatim, unlike %q.
func TestSanitizeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"EQ", "EQ"},
		{"plain-name_2D.Q91", "plain-name_2D.Q91"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"tab\there", "tab\there"}, // tab is legal in a label value
		{"utf8-ключ", "utf8-ключ"}, // multibyte passes through
		{"\\\"\n", `\\\"` + `\n`},  // all three escapes adjacent
		{`a\b"c` + "\nd", `a\\b\"c` + `\nd`},
	}
	for _, tc := range cases {
		if got := sanitizeLabel(tc.in); got != tc.want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// The strategy field routes /discover through the registry: any
// registered name works, unknown names are typed 400s listing the
// registry, and a contradictory algorithm/strategy pair is rejected.
func TestDiscoverStrategyField(t *testing.T) {
	s := newTestServer(t, testConfig(t))

	rec, body := postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Strategy: "parqo", QA: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("parqo: status %d: %s", rec.Code, body)
	}
	var resp DiscoverResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "parqo" || resp.Algorithm != "" || !resp.Completed {
		t.Fatalf("parqo response %+v", resp)
	}

	// Case-insensitive resolution; paper strategies echo both fields.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Strategy: "PlanBouquet", QA: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("PlanBouquet: status %d: %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "planbouquet" || resp.Algorithm != "planbouquet" {
		t.Fatalf("PlanBouquet response %+v", resp)
	}

	// Agreeing algorithm alias + strategy is fine.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", Strategy: "spillbound", QA: 7})
	if rec.Code != http.StatusOK {
		t.Fatalf("agreeing pair: status %d: %s", rec.Code, body)
	}

	// Unknown strategy: 400 listing the registry.
	rec, body = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Strategy: "zzz", QA: 7})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown strategy: status %d: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != KindBadRequest || !strings.Contains(er.Error, "spillbound") {
		t.Fatalf("unknown strategy error %+v must list the registry", er)
	}

	// Contradictory pair: 400.
	rec, _ = postJSON(t, s.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "pb", Strategy: "spillbound", QA: 7})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("conflicting pair: status %d", rec.Code)
	}
}

// A half-open breaker must admit exactly one of any number of
// concurrent probes, and the slot must be recycled correctly for each
// possible probe outcome.
func TestBreakerHalfOpenRace(t *testing.T) {
	cases := []struct {
		name      string
		probes    int
		settle    func(b *breaker) // report the admitted probe's outcome
		wantState string
		readmit   bool // a second probe is admitted after settling
	}{
		{"probe-succeeds", 16, func(b *breaker) { b.Report(true) }, "closed", true},
		{"probe-fails", 16, func(b *breaker) { b.Report(false) }, "open", false},
		{"probe-canceled", 16, func(b *breaker) { b.Cancel() }, "half-open", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(9000, 0)}
			b := newBreaker(1, time.Second, clk.Now)
			b.Report(false) // threshold 1: trips open
			if b.State() != "open" {
				t.Fatalf("pre-state %s, want open", b.State())
			}
			clk.Advance(2 * time.Second) // cooldown elapsed

			var admitted atomic.Int64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < tc.probes; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if ok, _ := b.Allow(); ok {
						admitted.Add(1)
					}
				}()
			}
			close(start)
			wg.Wait()
			if got := admitted.Load(); got != 1 {
				t.Fatalf("%d of %d concurrent probes admitted, want exactly 1", got, tc.probes)
			}

			tc.settle(b)
			if b.State() != tc.wantState {
				t.Fatalf("settled state %s, want %s", b.State(), tc.wantState)
			}
			if ok, _ := b.Allow(); ok != tc.readmit {
				t.Fatalf("post-settle Allow=%v, want %v", ok, tc.readmit)
			}
		})
	}
}
