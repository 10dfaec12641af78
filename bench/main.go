// Command bench is the repository's one benchmark: five workloads over
// the whole stack, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Uint64("seed", 1, "seed of the input generator (request order, Zipf draws)")
		seconds = fs.Float64("seconds", 10, "run length the fixed op counts are scaled to")
		trace   = fs.Int("trace", 0, "1 = traced run: print the per-layer metrics and write the span file")
		aa      = fs.Bool("aa", false, "run every workload twice three times on this code and check the two sides' medians against each metric's bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var defs []*workloadDef
	for _, d := range workloads {
		if *name == "all" || *name == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	tmp, err := scratchDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := &runOpts{seed: *seed, size: *seconds / 10, tmp: tmp, cal: newCalibrator()}

	ok := true
	switch {
	case *aa:
		ok, err = runAA(defs, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	default:
		for _, d := range defs {
			good, err := runOne(d, o, *trace == 1, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			ok = ok && good
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return names
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, correct bool, attempted, failed int, ms []metric) {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		line.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", b)
}

// runOne runs one workload, traced or not, and prints its metrics by
// name and unit followed by the result line.
func runOne(d *workloadDef, o *runOpts, traced bool, w io.Writer) (bool, error) {
	fmt.Fprintf(w, "workload %s  seed %d  size %.3g  clients %d  closed loop\n", d.name, o.seed, o.size, d.clients)
	if traced {
		return runTraced(d, o, w)
	}
	e, err := runEndToEnd(d, o)
	if err != nil {
		return false, err
	}
	m := e.m
	var wall time.Duration
	for _, l := range m.laps {
		wall += l.wall
	}
	fmt.Fprintf(w, "  %d ops in %.3f s and %d laps, during which the machine ran %.3f times slower than the reference (median lap)\n",
		m.tally.attempted, wall.Seconds(), len(m.laps), e.slowdown)
	which := "quietest"
	if m.unequalLaps {
		which = "(all)"
	}
	fmt.Fprintf(w, "  at reference speed: timings over the %d %s laps, %d ops in %.3f s, %d latency samples of %d op(s), tail is p%g; set-ups %.4v s\n",
		e.timedLaps, which, e.quietOps, e.quietWall.Seconds(), len(e.sorted), m.perSample, e.tailP, e.setups)
	for _, x := range e.metrics() {
		fmt.Fprintf(w, "  %-14s %14.6g %s\n", x.name, x.value, x.unit)
	}
	fmt.Fprintf(w, "  %-14s %14.6g ratio   (%d failed of %d attempted, %d above their bound)\n",
		"fail_ratio", float64(m.tally.failed)/float64(m.tally.attempted), m.tally.failed, m.tally.attempted, m.tally.violations)
	fmt.Fprintf(w, "  %-14s %016x\n", "result_hash", m.tally.hash)
	for _, n := range m.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if m.regime != nil {
		fmt.Fprintf(w, "  WRONG REGIME: %v\n", m.regime)
	}
	printResult(w, e.correct(), m.tally.attempted, m.tally.failed, e.metrics())
	return e.correct(), nil
}

// runTraced stands the workload up once, runs its traced pass and layer
// probes, prints every per-layer metric and writes the span file.
func runTraced(d *workloadDef, o *runOpts, w io.Writer) (bool, error) {
	inst, err := standUpOnce(d, o)
	if err != nil {
		return false, err
	}
	defer inst.close()
	tr := newTracer()
	lv, err := inst.layers(o, tr)
	if err != nil {
		return false, fmt.Errorf("%s: traced pass: %w", d.name, err)
	}
	path := filepath.Join(".bench_build", "spans-"+d.name+".jsonl")
	if err := flushSpans(path, tr.spans); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "  %d spans of %d traced requests written to %s\n", len(tr.spans), tr.req, path)
	ms := make([]metric, len(perLayerMetrics))
	for i, def := range perLayerMetrics {
		ms[i] = metric{def.name, def.unit, lv[def.name]}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", def.name, ms[i].value, def.unit)
	}
	for name := range lv {
		if !isPerLayer(name) {
			return false, fmt.Errorf("%s: traced pass produced unnamed metric %q", d.name, name)
		}
	}
	printResult(w, true, int(tr.req), 0, ms)
	return true, nil
}

func isPerLayer(name string) bool {
	for _, def := range perLayerMetrics {
		if def.name == name {
			return true
		}
	}
	return false
}

// minOverheadRatio is the least traced/untraced throughput ratio a
// traced pass may show; below it, tracing disturbs what it measures and
// the workload's trace-every constant must be raised.
const minOverheadRatio = 0.9

// aaRuns is how many runs make one side of the A/A comparison.
const aaRuns = 3

// runAA runs every workload 2 x aaRuns times on the same code and seed,
// the two sides taking turns, and checks the difference between the
// sides' medians of each end-to-end metric against its bound in
// BENCHMARK.json, as the driver does with ten runs a side; then it
// checks the traced pass's overhead. A benchmark that cannot tell a run
// from its own repeat cannot gate a change.
func runAA(defs []*workloadDef, o *runOpts, w io.Writer) (bool, error) {
	spec, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	ok := true
	for _, d := range defs {
		var (
			sides  [2][][]metric
			hashes = map[uint64]bool{}
		)
		for i := 0; i < 2*aaRuns; i++ {
			e, err := runEndToEnd(d, o)
			if err != nil {
				return false, err
			}
			if !e.correct() {
				fmt.Fprintf(w, "%s run %d: incorrect (%d failed, regime %v)\n", d.name, i+1, e.m.tally.failed, e.m.regime)
				ok = false
			}
			sides[i%2] = append(sides[i%2], e.metrics())
			hashes[e.m.tally.hash] = true
		}
		fmt.Fprintf(w, "%-14s %-13s %14s %14s %9s %7s   (medians of %d runs a side)\n", d.name, "metric", "side A", "side B", "diff", "bound", aaRuns)
		for i, def := range endToEndMetrics {
			var med [2]float64
			for side, runs := range sides {
				var v []float64
				for _, r := range runs {
					v = append(v, r[i].value)
				}
				med[side] = median(v)
			}
			diff := 0.0
			if med[0] != 0 {
				diff = (med[1] - med[0]) / med[0]
			}
			bound := 0.0
			for _, m := range spec.EndToEnd {
				if m.Name == def.name {
					bound = m.Bound
				}
			}
			verdict := ""
			if diff > bound || -diff > bound {
				verdict, ok = "  BREACH", false
			}
			fmt.Fprintf(w, "%-14s %-13s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", "", def.name, med[0], med[1], 100*diff, 100*bound, verdict)
		}
		verdict := fmt.Sprintf("the same in all %d runs", 2*aaRuns)
		if len(hashes) != 1 {
			verdict, ok = "  BREACH: the same seed must give the same results", false
		}
		fmt.Fprintf(w, "%-14s %-13s %s\n", "", "result_hash", verdict)
		inst, err := standUpOnce(d, o)
		if err != nil {
			return false, err
		}
		lv, err := inst.layers(o, newTracer())
		inst.close()
		if err != nil {
			return false, err
		}
		verdict = ""
		if lv["trace.overhead_ratio"] < minOverheadRatio {
			verdict, ok = "  BREACH: raise the workload's trace-every constant", false
		}
		fmt.Fprintf(w, "%-14s %-13s %14.4f (traced/untraced throughput, at least %.1f)%s\n", "", "trace.overhead_ratio", lv["trace.overhead_ratio"], minOverheadRatio, verdict)
	}
	return ok, nil
}
