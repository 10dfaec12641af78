package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core/discovery"
)

// outcomeGolden is one test's reference discoveries, kept in
// testdata/<test name>.golden: one line per tag, holding everything
// outcomeText renders. The answers were recorded over the
// tuple-at-a-time engine internal/exec carried as its reference until
// the vectorized engine was its only one; they are data now, and
// nothing rewrites them.
type outcomeGolden struct {
	path string
	want map[string]string
}

// loadOutcomeGolden reads the calling test's golden.
func loadOutcomeGolden(t *testing.T) *outcomeGolden {
	t.Helper()
	g := &outcomeGolden{path: filepath.Join("testdata", t.Name()+".golden"), want: map[string]string{}}
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

// check asserts a discovery and its error against the golden's answer
// for tag.
func (g *outcomeGolden) check(t *testing.T, tag string, out *discovery.Outcome, err error) {
	t.Helper()
	want, ok := g.want[tag]
	if !ok {
		t.Fatalf("%s: no golden answer in %s", tag, g.path)
	}
	if got := outcomeText(out, err); got != want {
		t.Errorf("%s: differs from the golden:\n golden: %s\n got:    %s", tag, want, got)
	}
}

// compareOutcomes asserts two discovery outcomes agree on everything
// outcomeText renders.
func compareOutcomes(t *testing.T, name string, want, got *discovery.Outcome) {
	t.Helper()
	if w, g := outcomeText(want, nil), outcomeText(got, nil); w != g {
		t.Errorf("%s: outcomes differ\n want: %s\n got:  %s", name, w, g)
	}
}

// outcomeText renders what compareOutcomes pins of a discovery: the
// error text, then every step (contour, plan, dimension, budget and
// cost as exact float bits, completion, phase, learned index), the cost
// ledger as bits, completion, retries, the alignment penalty as bits
// and the degradation ledger.
func outcomeText(out *discovery.Outcome, err error) string {
	bits := func(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "err=%q ", err.Error())
	}
	if out == nil {
		b.WriteString("outcome=nil")
		return b.String()
	}
	b.WriteString("steps=[")
	for i, s := range out.Steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "{%d %d %d %s %s %v %s %d}", s.Contour, s.PlanID, s.Dim, bits(s.Budget), bits(s.Cost), s.Completed, s.Phase, s.LearnedIdx)
	}
	fmt.Fprintf(&b, "] total=%s wasted=%s completed=%v retries=%d penalty=%s degradations=%q",
		bits(out.TotalCost), bits(out.WastedCost), out.Completed, out.Retries, bits(out.AlignPenalty), fmt.Sprint(out.Degradations))
	return b.String()
}
