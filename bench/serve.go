package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// respWriter is the http.ResponseWriter the closed loops hand to
// Server.Handler(): it keeps the status and the body in a reused
// buffer, so reading a response costs no allocation and nothing else is
// done with it.
type respWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

type readerBody struct{ *bytes.Reader }

func (readerBody) Close() error { return nil }

// client is one closed-loop caller: it sends its next request only
// after the previous one returned. Requests go straight into the
// handler, so a half-microsecond hit is not buried under a loopback
// round trip.
type client struct {
	h   http.Handler
	rd  *bytes.Reader
	req *http.Request
	w   respWriter
}

func newClient(h http.Handler) *client {
	c := &client{h: h, rd: bytes.NewReader(nil)}
	req, err := http.NewRequest(http.MethodPost, "/discover", nil)
	if err != nil {
		panic(err) // constant arguments
	}
	req.Body = readerBody{c.rd}
	c.req = req
	c.w = respWriter{h: make(http.Header)}
	return c
}

// post sends one /discover body and returns the status; the response
// body is in c.w.body until the next call.
func (c *client) post(body []byte) int {
	c.rd.Reset(body)
	c.w.code = 0
	c.w.body = c.w.body[:0]
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.code
}

// closedLoop runs positions 0..n-1 of a request sequence on the given
// number of closed-loop clients and returns the wall time. Client ci
// takes positions ci, ci+clients, ...: a static split, so each client's
// own sequence, and everything it tallies, repeats exactly.
func closedLoop(h http.Handler, clients, n int, op func(c *client, ci, pos int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(h)
			for pos := ci; pos < n; pos += clients {
				op(c, ci, pos)
			}
		}(ci)
	}
	wg.Wait()
	return time.Since(start)
}

// get fetches a GET endpoint (metrics, workloads) through the handler.
func get(h http.Handler, path string) []byte {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(err)
	}
	w := &respWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	return w.body
}

// promValue reads one sample from a Prometheus text page; series is the
// full series name including any label set.
func promValue(page []byte, series string) float64 {
	for _, line := range bytes.Split(page, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(series+" ")); ok {
			v, err := strconv.ParseFloat(string(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// hitRatio is the share of cache lookups between two snapshots of a
// cache's counters that hit.
func hitRatio(h0, m0, h1, m1 int64) float64 {
	total := (h1 - h0) + (m1 - m0)
	if total <= 0 {
		return 0
	}
	return float64(h1-h0) / float64(total)
}

// newServer builds a server and waits for its pinned workloads.
func newServer(cfg server.Config) (*server.Server, error) {
	cfg.Logf = func(string, ...any) {}
	// A benchmark must never trip a breaker: one would turn every later
	// request into a 503 and hide the failure that caused it.
	cfg.BreakerThreshold = 1 << 30
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		return nil, fmt.Errorf("waiting for %v: %w", cfg.Workloads, err)
	}
	return s, nil
}

// outcome is what the harness reads back from one DiscoverResponse.
type outcome struct {
	completed bool
	steps     int
	totalCost float64
	subOpt    float64
}

var (
	keyCompleted = []byte(`"completed":true`)
	keyTotalCost = []byte(`"total_cost":`)
	keySubOpt    = []byte(`"sub_opt":`)
	keySteps     = []byte(`"steps":`)
)

// parseOutcome extracts the ledger fields from an unarmed 200 body
// without allocating. The field names are unique in such a body: only
// degradation details are free text, and unarmed runs have none.
func parseOutcome(body []byte) (outcome, bool) {
	var o outcome
	o.completed = bytes.Contains(body, keyCompleted)
	var ok1, ok2, ok3 bool
	o.totalCost, ok1 = numberAfter(body, keyTotalCost)
	o.subOpt, ok2 = numberAfter(body, keySubOpt)
	var steps float64
	steps, ok3 = numberAfter(body, keySteps)
	o.steps = int(steps)
	return o, ok1 && ok2 && ok3
}

func numberAfter(body, key []byte) (float64, bool) {
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(body) && body[j] != ',' && body[j] != '}' {
		j++
	}
	v, err := strconv.ParseFloat(string(body[i:j]), 64)
	return v, err == nil
}

// tally accumulates the count-type results of the ops a client ran:
// how many failed, the sub-optimality ledger, and an order-sensitive
// hash over (status, steps, total_cost) of every op.
type tally struct {
	attempted, failed int
	completed         int
	sumSubOpt         float64
	maxSubOpt         float64
	violations        int
	hash              uint64
}

func newTally() *tally { return &tally{hash: fnvOffset} }

func (t *tally) mix(v uint64) {
	for i := 0; i < 8; i++ {
		t.hash ^= v & 0xff
		t.hash *= fnvPrime
		v >>= 8
	}
}

// op records one finished op. guarantee is the a-priori MSO bound the
// op must respect (0 = none to check).
func (t *tally) op(status int, o outcome, guarantee float64, failOnViolation bool) {
	t.attempted++
	t.mix(uint64(status))
	t.mix(uint64(o.steps))
	t.mix(math.Float64bits(o.totalCost))
	if status != http.StatusOK || !o.completed {
		t.failed++
		return
	}
	t.completed++
	t.sumSubOpt += o.subOpt
	if o.subOpt > t.maxSubOpt {
		t.maxSubOpt = o.subOpt
	}
	if violates(o.subOpt, guarantee) {
		t.violations++
		if failOnViolation {
			t.failed++
		}
	}
}

// violates reports whether a sub-optimality exceeds its a-priori bound
// (0 = no bound). The relative slack absorbs the last-bit difference
// between the response's printed sub_opt and the bound's own
// arithmetic.
func violates(subOpt, bound float64) bool { return bound > 0 && subOpt > bound*(1+1e-9) }

func (t *tally) fail() { t.attempted++; t.failed++ }

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.completed += o.completed
	t.sumSubOpt += o.sumSubOpt
	if o.maxSubOpt > t.maxSubOpt {
		t.maxSubOpt = o.maxSubOpt
	}
	t.violations += o.violations
	t.mix(o.hash)
}

func (t *tally) aso() float64 {
	if t.completed == 0 {
		return 0
	}
	return t.sumSubOpt / float64(t.completed)
}
