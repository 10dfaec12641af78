package experiments

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/workload"
)

// BakeoffOptions configures a strategy bake-off over one workload.
type BakeoffOptions struct {
	// Strategies are the registry names to compare (default: every
	// registered strategy, in registration order).
	Strategies []string
	// ChaosSeed seeds the per-strategy fault schedule. Every strategy
	// gets a fresh base injector from this seed and every grid location
	// its own Fork(qa) substream, so the schedule a location sees is a
	// function of (seed, rate, qa) only — identical across strategies
	// and across runs, the "same storm for everyone" contract.
	ChaosSeed uint64
	// ChaosRate arms every fault-injection site at this probability for
	// the chaos sweep (0 disables the chaos sweep; the chaos columns
	// then repeat the clean ones with zero degradations).
	ChaosRate float64
	// Stride samples every Stride-th grid location (default 1).
	Stride int
	// Workers bounds sweep parallelism (default NumCPU).
	Workers int
}

// BakeoffRow is one strategy's scorecard.
type BakeoffRow struct {
	// Strategy is the registry name.
	Strategy string
	// Guarantee is the a-priori MSO bound; HasGuarantee is false for the
	// heuristic strategies, which claim none.
	Guarantee    float64
	HasGuarantee bool
	// MSOe and ASO are the fault-free empirical maximum and average
	// sub-optimality over the sweep.
	MSOe, ASO float64
	// ChaosMSOe is the empirical MSO under the armed fault schedule
	// (retries and wasted work included in the bill).
	ChaosMSOe float64
	// WastedCost totals the cost of abandoned execution attempts across
	// the chaos sweep.
	WastedCost float64
	// Degradations and Retries count the resilient driver's ledger
	// entries across the chaos sweep.
	Degradations, Retries int
}

// BakeoffResult is the comparative scorecard of one bake-off.
type BakeoffResult struct {
	// Workload names the query swept.
	Workload string
	// D and Res describe the grid.
	D, Res int
	// Points is the number of locations each strategy was swept over.
	Points int
	// ChaosSeed and ChaosRate echo the options.
	ChaosSeed uint64
	ChaosRate float64
	// Rows are the per-strategy scorecards, in option order.
	Rows []BakeoffRow
}

// Bakeoff sweeps every requested strategy over the workload's full grid
// twice — fault-free, then under the deterministic chaos schedule — and
// assembles the comparative scorecard. All strategies share the one
// Compiled artifact and see identical per-location fault substreams, so
// the rows differ only by policy.
func Bakeoff(c *core.Compiled, workloadName string, opts BakeoffOptions) (*BakeoffResult, error) {
	names := opts.Strategies
	if len(names) == 0 {
		names = core.Strategies()
	}
	for _, name := range names {
		if _, ok := core.StrategyByName(name); !ok {
			return nil, fmt.Errorf("bakeoff: unknown strategy %q (registered: %s)",
				name, strings.Join(core.StrategyNamesSorted(), ", "))
		}
		// Pay every strategy's compile-time step before timing-sensitive
		// sweeps, and surface preparation errors up front.
		if err := c.PrepareStrategy(name); err != nil {
			return nil, err
		}
	}
	g := c.Source.Geometry()
	res := &BakeoffResult{
		Workload: workloadName, D: g.D, Res: g.Res,
		ChaosSeed: opts.ChaosSeed, ChaosRate: opts.ChaosRate,
	}
	sweepOpts := mso.Options{Stride: opts.Stride, Workers: opts.Workers}
	for _, name := range names {
		row := BakeoffRow{Strategy: name}
		row.Guarantee, row.HasGuarantee = c.StrategyGuarantee(name)

		clean, err := mso.Sweep(c.Source, func(qa int32) (*core.Outcome, error) {
			return c.NewRun().DiscoverStrategy(name, qa)
		}, sweepOpts)
		if err != nil {
			return nil, fmt.Errorf("bakeoff: %s clean sweep: %w", name, err)
		}
		row.MSOe, row.ASO = clean.MSO, clean.ASO
		res.Points = len(clean.Points)

		if opts.ChaosRate > 0 {
			// Per-location ledgers land in preallocated slots and are
			// summed in grid order afterwards, so the totals (float sums
			// included) are bit-for-bit independent of worker scheduling.
			n := g.NumPoints()
			wasted := make([]float64, n)
			degs := make([]int, n)
			retries := make([]int, n)
			base := faultinject.NewUniform(opts.ChaosSeed, opts.ChaosRate)
			chaos, err := mso.Sweep(c.Source, func(qa int32) (*core.Outcome, error) {
				out, err := c.NewRun().WithFaults(base.Fork(uint64(qa))).DiscoverStrategy(name, qa)
				if out != nil {
					wasted[qa] = out.WastedCost
					degs[qa] = len(out.Degradations)
					retries[qa] = out.Retries
				}
				return out, err
			}, sweepOpts)
			if err != nil {
				return nil, fmt.Errorf("bakeoff: %s chaos sweep: %w", name, err)
			}
			row.ChaosMSOe = chaos.MSO
			for pt := 0; pt < n; pt++ {
				row.WastedCost += wasted[pt]
				row.Degradations += degs[pt]
				row.Retries += retries[pt]
			}
		} else {
			row.ChaosMSOe = clean.MSO
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// BakeoffFor is the harness entry point: it resolves the workload,
// builds and compiles its space through the harness caches, and runs
// the bake-off.
func (h *Harness) BakeoffFor(workloadName string, opts BakeoffOptions) (*BakeoffResult, error) {
	spec, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	c, err := h.compiled(spec)
	if err != nil {
		return nil, err
	}
	return Bakeoff(c, workloadName, opts)
}

// guaranteeCell renders a row's a-priori bound ("—" when none claimed).
func (r BakeoffRow) guaranteeCell() string {
	if !r.HasGuarantee {
		return "—"
	}
	return f1(r.Guarantee)
}

// Report renders the scorecard as the standard experiments table.
func (r *BakeoffResult) Report() *Report {
	rep := &Report{
		Title: fmt.Sprintf("Bake-off — robust-QP strategies on %s (%dD, res %d)",
			r.Workload, r.D, r.Res),
		Header: []string{"strategy", "MSOg", "MSOe", "ASO", "chaos MSOe",
			"wasted cost", "degradations", "retries"},
	}
	for _, row := range r.Rows {
		rep.AddRow(row.Strategy, row.guaranteeCell(), f2(row.MSOe), f2(row.ASO),
			f2(row.ChaosMSOe), fmt.Sprintf("%.4g", row.WastedCost),
			fmt.Sprintf("%d", row.Degradations), fmt.Sprintf("%d", row.Retries))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d locations per sweep; chaos seed %d, rate %g; every strategy sees the identical per-location fault substream (Fork(qa))",
			r.Points, r.ChaosSeed, r.ChaosRate),
		"MSOg — is claimed by no heuristic strategy; their worst case is unbounded by design")
	return rep
}

// Markdown renders the scorecard as a GitHub-flavored markdown table
// for EXPERIMENTS.md.
func (r *BakeoffResult) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload %s (%dD, res %d), %d locations per sweep; chaos seed %d, rate %g.\n\n",
		r.Workload, r.D, r.Res, r.Points, r.ChaosSeed, r.ChaosRate)
	b.WriteString("| strategy | MSOg | MSOe | ASO | chaos MSOe | wasted cost | degradations | retries |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %.4g | %d | %d |\n",
			row.Strategy, row.guaranteeCell(), f2(row.MSOe), f2(row.ASO),
			f2(row.ChaosMSOe), row.WastedCost, row.Degradations, row.Retries)
	}
	return b.String()
}

// Bake-off section markers in EXPERIMENTS.md: the text between them is
// machine-regenerated by `rqp bakeoff`, everything outside is
// hand-maintained.
const (
	bakeoffBeginMarker = "<!-- bakeoff:begin -->"
	bakeoffEndMarker   = "<!-- bakeoff:end -->"
)

// UpdateExperimentsFile rewrites the bake-off section of the given
// markdown file in place: the content between the bakeoff markers is
// replaced with this result's table (the markers and a section heading
// are appended when absent).
func (r *BakeoffResult) UpdateExperimentsFile(path string) error {
	section := bakeoffBeginMarker + "\n" + r.Markdown() + bakeoffEndMarker
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bakeoff: reading %s: %w", path, err)
	}
	text := string(data)
	begin := strings.Index(text, bakeoffBeginMarker)
	end := strings.Index(text, bakeoffEndMarker)
	if begin >= 0 && end > begin {
		text = text[:begin] + section + text[end+len(bakeoffEndMarker):]
	} else if begin < 0 && end < 0 {
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		text += "\n## Strategy bake-off (generated by `rqp bakeoff`)\n\n" + section + "\n"
	} else {
		return fmt.Errorf("bakeoff: %s has unbalanced bakeoff markers", path)
	}
	return os.WriteFile(path, []byte(text), 0o644)
}
