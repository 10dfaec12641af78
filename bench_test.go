// Package repro_test is the benchmark harness regenerating every table
// and figure of the paper's evaluation (§6), plus the ablation studies
// of DESIGN.md §5 and micro-benchmarks of the substrate. Each
// BenchmarkFig*/BenchmarkTable* corresponds to one experiment of the
// per-experiment index in DESIGN.md §4; the rendered rows go to the
// benchmark log on the first iteration, and headline metrics are
// attached via b.ReportMetric.
//
// Benchmarks run at reduced grid resolutions (res/stride noted in each
// report) so the full battery completes in minutes on one core; see
// EXPERIMENTS.md for the recorded outputs and their comparison with the
// paper.
package repro_test

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/experiments"
	"repro/internal/mso"
	"repro/internal/workload"
)

// benchOpts keeps experiment benches tractable on a single core.
func benchOpts() experiments.Options {
	return experiments.Options{Res: 5, StrideHighD: 7}
}

// runReport executes an experiment b.N times, rendering it once.
func runReport(b *testing.B, f func(*experiments.Harness) (*experiments.Report, error)) *experiments.Report {
	b.Helper()
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOpts())
		rep, err := f(h)
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	if testing.Verbose() {
		last.Render(os.Stdout)
	} else {
		last.Render(io.Discard)
	}
	return last
}

// cell parses a numeric report cell for ReportMetric.
func cell(b *testing.B, rep *experiments.Report, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, rep.Rows[row][col], err)
	}
	return v
}

func BenchmarkFig3OCS(b *testing.B) {
	runReport(b, (*experiments.Harness).Fig3OCS)
}

func BenchmarkFig7Trace(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Fig7Trace)
	b.ReportMetric(float64(len(rep.Rows)), "executions")
}

func BenchmarkFig8MSOg(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Fig8MSOg)
	// Headline: 6D_Q91's SB guarantee (paper: 54 vs PB's 96).
	last := len(rep.Rows) - 1
	b.ReportMetric(cell(b, rep, last, 4), "SB-MSOg-6D_Q91")
	b.ReportMetric(cell(b, rep, last, 3), "PB-MSOg-6D_Q91")
}

func BenchmarkFig9Dimensionality(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Fig9Dimensionality)
	b.ReportMetric(cell(b, rep, 0, 4), "SB-MSOg-2D")
	b.ReportMetric(cell(b, rep, len(rep.Rows)-1, 4), "SB-MSOg-6D")
}

func BenchmarkFig10MSOe(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Fig10MSOe)
	worstPB, worstSB := 0.0, 0.0
	for i := range rep.Rows {
		if v := cell(b, rep, i, 2); v > worstPB {
			worstPB = v
		}
		if v := cell(b, rep, i, 3); v > worstSB {
			worstSB = v
		}
	}
	b.ReportMetric(worstPB, "worst-PB-MSOe")
	b.ReportMetric(worstSB, "worst-SB-MSOe")
}

func BenchmarkFig11ASO(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Fig11ASO)
	sumPB, sumSB := 0.0, 0.0
	for i := range rep.Rows {
		sumPB += cell(b, rep, i, 2)
		sumSB += cell(b, rep, i, 3)
	}
	n := float64(len(rep.Rows))
	b.ReportMetric(sumPB/n, "mean-PB-ASO")
	b.ReportMetric(sumSB/n, "mean-SB-ASO")
}

func BenchmarkFig12Histogram(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Fig12Histogram)
	b.ReportMetric(float64(len(rep.Rows)), "buckets")
}

func BenchmarkFig13MSOeAB(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Fig13MSOeAB)
	worstAB := 0.0
	for i := range rep.Rows {
		if v := cell(b, rep, i, 3); v > worstAB {
			worstAB = v
		}
	}
	b.ReportMetric(worstAB, "worst-AB-MSOe")
}

func BenchmarkTable2Alignment(b *testing.B) {
	runReport(b, (*experiments.Harness).Table2Alignment)
}

func BenchmarkTable3WallClock(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		h := experiments.New(experiments.Options{Scale: 0.3, Res: 5})
		var err error
		rep, err = h.Table3WallClock()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Rows)), "executions")
}

func BenchmarkTable4Penalty(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).Table4Penalty)
	worst := 0.0
	for i := range rep.Rows {
		if v := cell(b, rep, i, 1); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst-penalty")
}

func BenchmarkJOBQ1a(b *testing.B) {
	rep := runReport(b, (*experiments.Harness).JOB)
	b.ReportMetric(cell(b, rep, 0, 1), "native-MSO")
	b.ReportMetric(cell(b, rep, 1, 1), "SB-MSOe")
	b.ReportMetric(cell(b, rep, 2, 1), "AB-MSOe")
}

func BenchmarkAblationCostRatio(b *testing.B) {
	runReport(b, (*experiments.Harness).AblationCostRatio)
}

func BenchmarkAblationAnorexicLambda(b *testing.B) {
	runReport(b, (*experiments.Harness).AblationAnorexicLambda)
}

func BenchmarkAblationGridResolution(b *testing.B) {
	runReport(b, (*experiments.Harness).AblationGridResolution)
}

func BenchmarkAblationOptimizerProbes(b *testing.B) {
	runReport(b, (*experiments.Harness).AblationOptimizerProbes)
}

func BenchmarkAblationOneDEndgame(b *testing.B) {
	runReport(b, (*experiments.Harness).AblationOneDEndgame)
}

func BenchmarkAblationCostModelError(b *testing.B) {
	runReport(b, (*experiments.Harness).AblationCostModelError)
}

// --- substrate micro-benchmarks ---

func BenchmarkSpaceBuild2DQ91(b *testing.B) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spec.Space(1.0, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceBuild6D compiles the 6D_Q91 space at res 5 (15625
// points) and reports the exact-DP invocation profile of the sweep.
func BenchmarkSpaceBuild6D(b *testing.B) {
	spec, err := workload.ByName("6D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	var st ess.SweepStats
	for i := 0; i < b.N; i++ {
		s, err := spec.Space(1.0, 5)
		if err != nil {
			b.Fatal(err)
		}
		st = s.Stats
	}
	b.ReportMetric(float64(st.DPCalls), "DP-calls")
	b.ReportMetric(st.DPReduction(), "DP-reduction")
	b.ReportMetric(st.FallbackRate(), "fallback-rate")
}

// BenchmarkSpaceBuild6DExact is the one-DP-per-point reference for
// BenchmarkSpaceBuild6D on the same optimizer substrate.
func BenchmarkSpaceBuild6DExact(b *testing.B) {
	spec, err := workload.ByName("6D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spec.SpaceWith(1.0, ess.Config{Res: 5, Theta: ess.ThetaExact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyDiscover6D is the demand-driven counterpart of
// BenchmarkSpaceBuild6D: cold LazySpace construction plus one full
// SpillBound discovery at the 6D_Q91 grid midpoint. res=5 matches the
// eager sweep's grid; res=10 has 64x the points (10^6) yet must stay
// cheaper than the eager res-5 build, because discovery settles only
// the points the budget ladder touches.
func BenchmarkLazyDiscover6D(b *testing.B) {
	spec, err := workload.ByName("6D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range []int{5, 10} {
		b.Run(fmt.Sprintf("res=%d", res), func(b *testing.B) {
			var settled, points int
			for i := 0; i < b.N; i++ {
				ls, err := spec.LazySpaceWith(1.0, ess.Config{Res: res})
				if err != nil {
					b.Fatal(err)
				}
				c, err := core.CompileSource(ls, core.CompileOptions{})
				if err != nil {
					b.Fatal(err)
				}
				g := ls.Geometry()
				mid := make([]int, g.D)
				for d := range mid {
					mid[d] = g.Res / 2
				}
				if _, err := c.NewRun().Discover(core.SpillBound, int32(g.Linear(mid))); err != nil {
					b.Fatal(err)
				}
				p := ls.Profile()
				settled, points = p.Settled, p.Points
			}
			b.ReportMetric(float64(settled), "settled")
			b.ReportMetric(float64(settled)/float64(points), "settled-frac")
		})
	}
}

// BenchmarkContours isolates iso-cost contour extraction on a built 2D
// space.
func BenchmarkContours(b *testing.B) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	space, err := spec.Space(1.0, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := space.RecomputeContours(); len(cs) == 0 {
			b.Fatal("no contours")
		}
	}
}

func BenchmarkDiscoverSpillBound(b *testing.B) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	space, err := spec.Space(1.0, 12)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	qa := int32(space.Grid.Linear([]int{8, 6}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.NewRun().Discover(core.SpillBound, qa); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverAlignedBound(b *testing.B) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	space, err := spec.Space(1.0, 12)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	qa := int32(space.Grid.Linear([]int{8, 6}))
	if _, err := sess.NewRun().Discover(core.AlignedBound, qa); err != nil {
		b.Fatal(err) // prime the planner cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.NewRun().Discover(core.AlignedBound, qa); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMSOSweepSpillBound(b *testing.B) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	space, err := spec.Space(1.0, 10)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.MSO(core.SpillBound, mso.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MSO, "MSOe")
		}
	}
}

func BenchmarkSimEngineSpill(b *testing.B) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		b.Fatal(err)
	}
	space, err := spec.Space(1.0, 12)
	if err != nil {
		b.Fatal(err)
	}
	qa := int32(space.Grid.Terminus())
	eng := discovery.NewSimEngine(space, qa)
	pid := space.PointPlan[space.Grid.Origin()]
	dim := space.SpillDim(pid, 0b11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ExecSpill(pid, dim, space.Cmin)
	}
}
