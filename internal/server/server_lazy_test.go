package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func lazyConfig(t *testing.T) Config {
	cfg := testConfig(t)
	cfg.ESSMode = "lazy"
	return cfg
}

func TestLazyModeServesAllAlgorithms(t *testing.T) {
	s := newTestServer(t, lazyConfig(t))

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

	// The workload reports its demand-driven mode and settled count.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/workloads", nil))
	var infos []WorkloadInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !strings.HasPrefix(infos[0].Mode, "lazy-") {
		t.Fatalf("workload info %+v, want lazy mode", infos)
	}
	if infos[0].Settled <= 0 || infos[0].Settled > infos[0].Points {
		t.Fatalf("settled %d of %d points", infos[0].Settled, infos[0].Points)
	}

	// Spill-mode observations were fed back: the refinement counters and
	// the lazy gauges are on /metrics.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	page := rec.Body.String()
	for _, metric := range []string{
		"rqp_refine_observations_total", "rqp_refined_points_total",
		`rqp_lazy_settled_points{workload="EQ"}`,
		`rqp_lazy_contour_misses_total{workload="EQ"}`,
		`rqp_lazy_epoch{workload="EQ"}`,
		`rqp_lazy_contours_built_total{workload="EQ"}`,
		`rqp_planner_dp_runs_total{workload="EQ"}`,
	} {
		if !strings.Contains(page, metric) {
			t.Fatalf("metrics page missing %s:\n%s", metric, page)
		}
	}
	if s.metrics.refineObs.Load() == 0 {
		t.Fatal("discoveries with spill steps fed no observations")
	}

	// An MSO sweep over the lazy source works too.
	mrec, mbody := postJSON(t, s.Handler(), "/mso",
		MSORequest{Workload: "EQ", Algorithm: "spillbound", Stride: 3})
	if mrec.Code != http.StatusOK {
		t.Fatalf("mso status %d: %s", mrec.Code, mbody)
	}
}

func TestLazySnapshotWarmLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := lazyConfig(t)
	cfg.SnapshotDir = dir
	snap := filepath.Join(dir, "EQ.lazy.snap")

	// First boot: cold build, sparse base persisted; a discovery appends
	// a refinement delta.
	s1 := newTestServer(t, cfg)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("first boot did not persist a lazy snapshot: %v", err)
	}
	base, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	rec, body := postJSON(t, s1.Handler(), "/discover",
		DiscoverRequest{Workload: "EQ", Algorithm: "sb", QA: 9})
	if rec.Code != http.StatusOK {
		t.Fatalf("discover: status %d: %s", rec.Code, body)
	}
	grown, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Size() <= base.Size() {
		t.Fatal("discovery settled points but no delta was appended")
	}

	// Second boot: warm load of base + deltas.
	s2 := newTestServer(t, cfg)
	ws := s2.workloads["EQ"]
	ws.mu.RLock()
	warm, lazy := ws.warmLoaded, ws.lazy
	ws.mu.RUnlock()
	if !warm || lazy == nil {
		t.Fatal("second boot should warm-load the lazy snapshot")
	}
	if lazy.Profile().Settled <= 2 {
		t.Fatalf("warm load restored only %d settled points", lazy.Profile().Settled)
	}
}

func TestLazyDeltaCrashQuarantinesAndRebuilds(t *testing.T) {
	dir := t.TempDir()
	cfg := lazyConfig(t)
	cfg.SnapshotDir = dir
	snap := filepath.Join(dir, "EQ.lazy.snap")

	s1 := newTestServer(t, cfg)
	ws1 := s1.workloads["EQ"]
	// Settle fresh surface, then crash mid-delta-append: the injector
	// tears the write half-way, exactly like a kill would.
	ws1.lazy.ContourAt(nil, 0)
	d := ws1.lazy.DeltaSince(ws1.persistMark)
	if d == nil {
		t.Fatal("no delta to append")
	}
	in := faultinject.New(faultinject.Config{
		Seed:  3,
		Rates: map[faultinject.Site]float64{faultinject.SiteSnapshotSave: 1},
	})
	if err := ws1.lazy.AppendDeltaFileWith(snap, d, in); err == nil {
		t.Fatal("fault-injected delta append must fail")
	}

	// Next boot: the torn tail is detected, the snapshot quarantined,
	// the workload rebuilt, and a fresh base persisted.
	s2 := newTestServer(t, cfg)
	ws2 := s2.workloads["EQ"]
	ws2.mu.RLock()
	warm, quarantined := ws2.warmLoaded, ws2.quarantined
	ws2.mu.RUnlock()
	if warm {
		t.Fatal("torn delta tail must not warm-load")
	}
	if quarantined == "" {
		t.Fatal("torn snapshot was not quarantined")
	}
	if _, err := os.Stat(quarantined); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if ws2.status() != "ready" {
		t.Fatalf("rebuild after quarantine: status %s", ws2.status())
	}

	// The rebuilt snapshot warm-loads cleanly on the boot after.
	s3 := newTestServer(t, cfg)
	if !s3.workloads["EQ"].warmLoaded {
		t.Fatal("rebuilt lazy snapshot should warm-load")
	}
}
