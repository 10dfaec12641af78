package exec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// golden is one test's reference answers, kept in
// testdata/<test name>.golden: one line per run tag, holding the run's
// Rows and every other observable the differential contract pins (see
// observables). The answers were recorded from the tuple-at-a-time
// engine this package carried as its reference until the vectorized
// engine was its only one; they are data now, and nothing rewrites them.
type golden struct {
	path string
	want map[string]string // tag → rows \t observables
}

// loadGolden reads the calling test's golden.
func loadGolden(t *testing.T) *golden {
	t.Helper()
	g := &golden{path: filepath.Join("testdata", t.Name()+".golden"), want: map[string]string{}}
	raw, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		tag, v, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", g.path, line)
		}
		g.want[tag] = v
	}
	return g
}

// check asserts run r against the golden's answer for tag; rows
// additionally pins Result.Rows.
func (g *golden) check(t *testing.T, tag string, r engineRun, rows bool) {
	t.Helper()
	want, ok := g.want[tag]
	if !ok {
		t.Fatalf("%s: no golden answer in %s", tag, g.path)
	}
	wantRows, wantObs, _ := strings.Cut(want, "\t")
	gotRows, gotObs := observables(r)
	if gotObs != wantObs {
		t.Fatalf("%s: differs from the golden:\n golden: %s\n got:    %s", tag, wantObs, gotObs)
	}
	if rows && strconv.FormatInt(gotRows, 10) != wantRows {
		t.Fatalf("%s: Rows %d, golden %s", tag, gotRows, wantRows)
	}
}

// observables renders what the differential contract pins of a run:
// Cost, WastedCost and Drift as exact float bits, Completed, Retries,
// Degraded, JoinSel (bits, by join ID), the fault log and the error
// text; Rows apart.
func observables(r engineRun) (int64, string) {
	var b strings.Builder
	if r.err != nil {
		fmt.Fprintf(&b, "err=%q ", r.err.Error())
	}
	fmt.Fprintf(&b, "log=%v", r.log)
	res := r.res
	if res == nil {
		b.WriteString(" res=nil")
		return 0, b.String()
	}
	bits := func(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }
	fmt.Fprintf(&b, " cost=%s wasted=%s drift=%s completed=%v retries=%d degraded=%q joinsel=[",
		bits(res.Cost), bits(res.WastedCost), bits(res.Drift), res.Completed, res.Retries, res.Degraded)
	ids := make([]int, 0, len(res.JoinSel))
	for id := range res.JoinSel {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s", id, bits(res.JoinSel[id]))
	}
	b.WriteByte(']')
	return res.Rows, b.String()
}
