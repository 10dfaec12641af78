package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// This file benchmarks the serving tier's request hot path.
// BenchmarkServeDiscover measures the in-process /discover latency and
// allocation profile under two traffic mixes (repeat-heavy, where the
// deterministic outcome cache should absorb nearly everything, and
// all-miss, where it must not slow the execution path down), each with
// the cache enabled and disabled. BenchmarkHerdReplicas measures
// shared-nothing ring throughput at 1/2/4 in-process replicas via the
// Herd driver.

// nullRW discards the response while recording the status, so the
// benchmark loop measures the handler, not an httptest recorder's
// buffer growth.
type nullRW struct {
	h    http.Header
	code int
}

func (n *nullRW) Header() http.Header         { return n.h }
func (n *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (n *nullRW) WriteHeader(c int)           { n.code = c }

// reusableBody lets one bytes.Reader serve every request in the loop.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

func benchServeConfig(b testing.TB, outcomeCacheBytes int64) server.Config {
	return server.Config{
		Workloads: []string{"EQ"},
		Scale:     0.2,
		Res:       6,
		// The mixes below arm per-request fault substreams at a
		// vanishing rate so cache-on and cache-off runs execute the
		// identical resilient-engine stack.
		AllowRequestFaults: true,
		BreakerThreshold:   1 << 20,
		OutcomeCacheBytes:  outcomeCacheBytes,
		Logf:               b.Logf,
	}
}

func newBenchServer(b testing.TB, cfg server.Config) *server.Server {
	b.Helper()
	s, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		b.Fatal(err)
	}
	return s
}

// eqGridPoints is the EQ workload's grid size at scale 0.2, res 6.
const eqGridPoints = 36

func discoverBody(qa int) []byte {
	return []byte(fmt.Sprintf(`{"workload":"EQ","algorithm":"sb","qa":%d}`, qa))
}

// serveLoop drives b.N sequential /discover requests through the
// handler, with bodyFor supplying the i-th request body. warm requests
// are sent untimed first (the repeat mix measures steady-state hits,
// not its own cache-fill lap).
func serveLoop(b *testing.B, s *server.Server, warm [][]byte, bodyFor func(i int) []byte) {
	b.Helper()
	h := s.Handler()
	rd := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/discover", nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Body = reusableBody{rd}
	w := &nullRW{h: make(http.Header)}
	serve := func(i int, body []byte) {
		rd.Reset(body)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("request %d: status %d", i, w.code)
		}
	}
	for i, body := range warm {
		serve(i, body)
	}
	// Sub-benchmarks run back to back in one process; without a
	// collection here each inherits the previous one's heap and GC
	// pacing, which skews per-op numbers by more than the effects
	// being measured.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i, bodyFor(i))
	}
}

// TestServeHitPathZeroAlloc is the CI regression guard behind the
// serve-bench job: a warmed byte-identical repeat must serve without
// allocating. Three warm arrivals take the point through the
// doorkeeper (record, admit) and teach the front table its identity;
// every arrival after that is a pure cache hit.
func TestServeHitPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	s := newBenchServer(t, benchServeConfig(t, 0))
	h := s.Handler()
	body := discoverBody(7)
	rd := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/discover", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body = reusableBody{rd}
	w := &nullRW{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs >= 1 {
		t.Fatalf("hit path allocates %.2f objects/op, want 0", allocs)
	}
}

func BenchmarkServeDiscover(b *testing.B) {
	for _, bm := range []struct {
		name       string
		cacheBytes int64
	}{
		{"repeat", 0},
		{"repeat-nocache", -1},
		{"allmiss", 0},
		{"allmiss-nocache", -1},
	} {
		repeat := bm.name == "repeat" || bm.name == "repeat-nocache"
		b.Run(bm.name, func(b *testing.B) {
			s := newBenchServer(b, benchServeConfig(b, bm.cacheBytes))
			if repeat {
				// Repeat-heavy: the working set is the whole grid,
				// unarmed (the production repeat mix). Two warm laps:
				// the first passes the doorkeeper, the second admits
				// every point into the cache.
				bodies := make([][]byte, eqGridPoints)
				for qa := range bodies {
					bodies[qa] = discoverBody(qa)
				}
				warm := append(append([][]byte(nil), bodies...), bodies...)
				serveLoop(b, s, warm, func(i int) []byte { return bodies[i%eqGridPoints] })
				return
			}
			// All-miss: every request arms a never-seen fault substream
			// at a vanishing rate (the substream is part of the key), so
			// the cache (when on) inserts but never hits — the mix
			// prices the cache's overhead on the execution path, with
			// both variants running the identical resilient stack.
			var buf []byte
			serveLoop(b, s, nil, func(i int) []byte {
				buf = buf[:0]
				buf = fmt.Appendf(buf,
					`{"workload":"EQ","algorithm":"sb","qa":%d,"fault_seed":%d,"fault_rate":1e-9}`,
					i%eqGridPoints, uint64(i)+2)
				return buf
			})
		})
	}
}

// benchRing starts n shard-out replicas on loopback listeners and
// returns their base URLs. The outcome cache is disabled so the herd
// measures ring routing and execution throughput, not caching.
func benchRing(b *testing.B, n int) []string {
	b.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	servers := make([]*server.Server, n)
	for i := range servers {
		cfg := server.Config{
			Workloads:         []string{"EQ", "2D_Q91", "3D_Q91"},
			Scale:             0.2,
			Res:               6,
			MaxConcurrent:     8,
			MaxQueue:          256,
			BreakerThreshold:  1 << 20,
			ExecLatency:       2 * time.Millisecond,
			OutcomeCacheBytes: -1,
			Logf:              b.Logf,
		}
		if n > 1 {
			cfg.Peers = urls
			cfg.SelfURL = urls[i]
		}
		s, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = s
		wg.Add(1)
		go func(s *server.Server, ln net.Listener) {
			defer wg.Done()
			s.Serve(ctx, ln)
		}(s, listeners[i])
	}
	b.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	for _, s := range servers {
		wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
		err := s.WaitReady(wctx)
		wcancel()
		if err != nil {
			b.Fatal(err)
		}
	}
	return urls
}

func BenchmarkHerdReplicas(b *testing.B) {
	// Three signatures spread across the ring: each herd wave exercises
	// owner routing (n>1 forwards ~2/3 of arrivals one hop).
	workloads := []string{"EQ", "2D_Q91", "3D_Q91"}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			urls := benchRing(b, n)
			client := &http.Client{Timeout: 120 * time.Second}
			const herdSize = 24
			b.ResetTimer()
			var requests int
			for i := 0; i < b.N; i++ {
				body := []byte(fmt.Sprintf(
					`{"workload":"%s","algorithm":"sb","qa":%d,"timeout_ms":90000}`,
					workloads[i%len(workloads)], (i*7)%eqGridPoints))
				res, err := Herd(HerdOptions{
					BaseURL:     urls[i%len(urls)],
					Body:        body,
					Concurrency: herdSize,
					Seed:        uint64(i),
					WaitCap:     50 * time.Millisecond,
					Client:      client,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Statuses[http.StatusOK] != herdSize {
					b.Fatalf("herd %d: %s", i, res)
				}
				requests += herdSize
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(requests)/sec, "req/s")
			}
		})
	}
}
