package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// small returns a harness with tiny grids so every experiment runs fast.
func small() *Harness {
	return New(Options{Res: 5, StrideHighD: 7})
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestReportRender(t *testing.T) {
	rep := &Report{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n1"}}
	rep.AddRow("1", "2")
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	for _, want := range []string{"T\n=", "a", "bb", "1", "2", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestFig3OCS(t *testing.T) {
	rep, err := small().Fig3OCS()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no OCS samples")
	}
	// Costs must be monotone down each sampled column block: just check
	// the first and last rows differ (surface is not flat).
	first := parseF(t, rep.Rows[0][2])
	last := parseF(t, rep.Rows[len(rep.Rows)-1][2])
	if last <= first {
		t.Errorf("OCS should rise from origin (%v) to terminus (%v)", first, last)
	}
}

func TestFig7Trace(t *testing.T) {
	rep, err := small().Fig7Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatal("trace should have several executions")
	}
	// The sub-optimality note must report a value within the 2D bound.
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "sub-optimality") {
			found = true
		}
	}
	if !found {
		t.Error("missing sub-optimality note")
	}
}

func TestFig8And9Guarantees(t *testing.T) {
	h := small()
	rep, err := h.Fig8MSOg()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 11 {
		t.Fatalf("Fig8 rows = %d, want 11", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		d := parseF(t, row[1])
		sb := parseF(t, row[4])
		if sb != d*d+3*d {
			t.Errorf("%s: SB MSOg = %v, want D²+3D = %v", row[0], sb, d*d+3*d)
		}
		if parseF(t, row[3]) <= 0 {
			t.Errorf("%s: PB MSOg not positive", row[0])
		}
	}

	rep9, err := h.Fig9Dimensionality()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep9.Rows) != 5 {
		t.Fatalf("Fig9 rows = %d, want 5", len(rep9.Rows))
	}
	// SB guarantee grows quadratically with D.
	prev := 0.0
	for _, row := range rep9.Rows {
		sb := parseF(t, row[4])
		if sb <= prev {
			t.Error("SB MSOg must increase with D")
		}
		prev = sb
	}
}

func TestFig10Fig11EmpiricalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-heavy")
	}
	h := small()
	rep, err := h.Fig10MSOe()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		pbE, sbE := parseF(t, row[2]), parseF(t, row[3])
		pbG, sbG := parseF(t, row[4]), parseF(t, row[5])
		if pbE < 1 || sbE < 1 {
			t.Errorf("%s: sub-optimality below 1", row[0])
		}
		if pbE > pbG*1.001 {
			t.Errorf("%s: PB MSOe %v above its guarantee %v", row[0], pbE, pbG)
		}
		if sbE > sbG*1.001 {
			t.Errorf("%s: SB MSOe %v above its guarantee %v", row[0], sbE, sbG)
		}
	}
	rep11, err := h.Fig11ASO()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep11.Rows {
		if parseF(t, row[2]) < 1 || parseF(t, row[3]) < 1 {
			t.Errorf("%s: ASO below 1", row[0])
		}
	}
}

func TestFig12HistogramSumsToOne(t *testing.T) {
	h := small()
	rep, err := h.Fig12Histogram()
	if err != nil {
		t.Fatal(err)
	}
	pbTotal, sbTotal := 0.0, 0.0
	for _, row := range rep.Rows {
		pbTotal += parseF(t, row[2])
		sbTotal += parseF(t, row[4])
	}
	if math.Abs(pbTotal-100) > 2 || math.Abs(sbTotal-100) > 2 {
		t.Errorf("histogram fractions sum to %v%%, %v%%", pbTotal, sbTotal)
	}
}

func TestFig13AndTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-heavy")
	}
	h := small()
	rep, err := h.Fig13MSOeAB()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		d := parseF(t, row[1])
		ab := parseF(t, row[3])
		if ab < 1 {
			t.Errorf("%s: AB MSOe %v below 1", row[0], ab)
		}
		hi := d*d + 3*d
		if ab > hi*3 {
			t.Errorf("%s: AB MSOe %v way above quadratic bound %v", row[0], ab, hi)
		}
	}
	rep4, err := h.Table4Penalty()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep4.Rows {
		pen := parseF(t, row[1])
		if pen < 1 {
			t.Errorf("%s: penalty %v below 1", row[0], pen)
		}
	}
}

func TestTable2Alignment(t *testing.T) {
	h := small()
	rep, err := h.Table2Alignment()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("Table2 rows = %d, want 6", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		orig := parseF(t, row[1])
		d12 := parseF(t, row[2])
		d15 := parseF(t, row[3])
		d20 := parseF(t, row[4])
		// Fractions must be monotone in the threshold.
		if d12 < orig || d15 < d12 || d20 < d15 {
			t.Errorf("%s: non-monotone alignment fractions %v %v %v %v",
				row[0], orig, d12, d15, d20)
		}
	}
}

func TestTable3WallClock(t *testing.T) {
	h := New(Options{Scale: 0.3, Res: 5})
	rep, err := h.Table3WallClock()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatal("drill-down should span several executions")
	}
	// Cumulative cost must be non-decreasing.
	prev := 0.0
	for _, row := range rep.Rows {
		c := parseF(t, row[4])
		if c < prev {
			t.Error("cumulative cost decreased")
		}
		prev = c
	}
	// Notes must carry all four end-to-end comparisons.
	joined := strings.Join(rep.Notes, "\n")
	for _, want := range []string{"oracle", "native", "SpillBound", "AlignedBound"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %s", want)
		}
	}
}

func TestJOBExperiment(t *testing.T) {
	h := small()
	rep, err := h.JOB()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatal("JOB report should have 3 approaches")
	}
	native := parseF(t, rep.Rows[0][1])
	sb := parseF(t, rep.Rows[1][1])
	ab := parseF(t, rep.Rows[2][1])
	if native < sb {
		t.Errorf("native MSO %v should dominate SB %v", native, sb)
	}
	if sb < 1 || ab < 1 {
		t.Error("sub-optimalities below 1")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-heavy")
	}
	h := New(Options{Res: 6})
	ratio, err := h.AblationCostRatio()
	if err != nil {
		t.Fatal(err)
	}
	if len(ratio.Rows) != 5 {
		t.Fatal("cost ratio ablation rows")
	}
	lam, err := h.AblationAnorexicLambda()
	if err != nil {
		t.Fatal(err)
	}
	// rho_red must be non-increasing in lambda (rows after "unreduced").
	prev := math.Inf(1)
	for _, row := range lam.Rows[1:] {
		rho := parseF(t, row[1])
		if rho > prev {
			t.Error("rho_red must not increase with lambda")
		}
		prev = rho
	}
	res, err := h.AblationGridResolution()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatal("grid resolution ablation rows")
	}
	probes, err := h.AblationOptimizerProbes()
	if err != nil {
		t.Fatal(err)
	}
	if len(probes.Rows) != 2 {
		t.Fatal("probe ablation rows")
	}
	oneD, err := h.AblationOneDEndgame()
	if err != nil {
		t.Fatal(err)
	}
	if len(oneD.Rows) != 2 {
		t.Fatal("1-D endgame ablation rows")
	}
	for _, row := range oneD.Rows {
		if parseF(t, row[1]) < 1 {
			t.Error("endgame MSOe below 1")
		}
	}
}

func TestHarnessCachesSpaces(t *testing.T) {
	h := small()
	a, err := h.Fig8MSOg()
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	n := len(h.sources)
	if _, err := h.Fig9Dimensionality(); err != nil {
		t.Fatal(err)
	}
	// Fig9 shares 4D_Q91/6D_Q91 with the suite; cache must have grown by
	// at most the new family members.
	if len(h.sources) > n+4 {
		t.Errorf("cache grew from %d to %d; sharing broken", n, len(h.sources))
	}
}

func TestAblationCostModelError(t *testing.T) {
	h := New(Options{Res: 8})
	rep, err := h.AblationCostModelError()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[3] != "yes" {
			t.Errorf("delta=%s: MSOe %s exceeded inflated bound %s", row[0], row[1], row[2])
		}
	}
}
