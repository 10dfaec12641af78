package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/workload"
)

// FuzzDiscoverHTTP posts arbitrary bodies to /discover and /mso through
// the mux of one EQ server with no fault armed. Whatever the bytes, the
// server must not panic or answer 500, and once the response is written
// nothing may stay held: no request counted in flight, no queue seat,
// no execution slot.
func FuzzDiscoverHTTP(f *testing.F) {
	s := newTestServer(f, Config{
		Workloads: []string{"EQ"}, Scale: 0.2, Res: 6,
		Logf: func(string, ...any) {},
	})
	h := s.Handler()
	sqlBody, err := json.Marshal(DiscoverRequest{SQL: workload.EQ().SQL, Algorithm: "sb", QA: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, []byte(`{"workload":"EQ","algorithm":"spillbound","qa":7}`))
	f.Add(false, sqlBody)
	f.Add(true, []byte(`{"workload":"EQ","algorithm":"ab","stride":2}`))
	f.Add(false, []byte(`{"workload":"EQ","strategy":"robustmap","qa":5,"timeout_ms":50}`))
	f.Fuzz(func(t *testing.T, mso bool, body []byte) {
		path := "/discover"
		if mso {
			path = "/mso"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %q: 500 with no fault armed: %s", path, body, rec.Body.Bytes())
		}
		if n, q, slots := s.metrics.inflight.Load(), s.queued.Load(), len(s.sem); n != 0 || q != 0 || slots != 0 {
			t.Fatalf("%s %q: in flight %d, queued %d, slots taken %d after the response", path, body, n, q, slots)
		}
	})
}
