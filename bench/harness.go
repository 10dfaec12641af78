package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runOpts is what one benchmark invocation fixes for its workloads.
type runOpts struct {
	seed uint64
	// size scales every workload's fixed op count. 1.0 is the count
	// calibrated to take about ten seconds on the two-core reference
	// box; -seconds s sets size to s/10, so one common factor stretches
	// or shrinks all five workloads and none is ever dropped.
	size float64
	// tmp is a scratch directory inside the checkout (snapshots, spans).
	tmp string
	// cal times the machine itself; set-ups and laps call probe.
	cal *calibrator
}

// probe times the machine once. Workloads call it before every lap;
// the harness adds the one after the last.
func (o *runOpts) probe() { o.cal.probe() }

// count scales a workload's base count, keeping it a positive multiple
// of unit.
func (o *runOpts) count(base, unit int) int {
	n := int(float64(base)*o.size) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// workloadDef names one workload and how to stand it up; why it exists
// is in BENCHMARK.json and README.md.
type workloadDef struct {
	name    string
	clients int
	// setupReps is how many times set-up runs; setup_s is the median,
	// and only the last instance is measured.
	setupReps int
	setup     func(o *runOpts) (instance, error)
}

// instance is one stood-up workload: the program under test plus the
// harness's generated inputs for it.
type instance interface {
	// measure runs the fixed, seeded op sequence with tracing off.
	measure(o *runOpts) (*measured, error)
	// layers runs the traced pass and the layer probes.
	layers(o *runOpts, tr *tracer) (layerValues, error)
	close()
}

// laps is how many equal parts the measured sequence is run in. The
// sandbox's host slows the guest down in bursts of a quarter of a second
// to several seconds, by up to half, and such a burst inside a run moves
// every timing of the run. Interference only ever slows, so the laps
// that ran fastest are the ones nothing disturbed: the timing metrics
// are computed over the quieter half of the laps. Count metrics (aso,
// mso, failures, result_hash) are over every op of every lap.
const laps = 8

// lap is one part of the measured sequence: how many ops it ran, how
// long it took, and each op's latency in ns.
type lap struct {
	ops  int
	wall time.Duration
	ns   []int64
}

// atReference returns the lap as it would have run at reference speed,
// given how many times slower the machine ran during it.
func (l lap) atReference(slowdown float64) lap {
	ref := lap{ops: l.ops, wall: time.Duration(float64(l.wall) / slowdown), ns: make([]int64, len(l.ns))}
	for i, ns := range l.ns {
		ref.ns[i] = int64(float64(ns) / slowdown)
	}
	return ref
}

// quietHalf returns the half of the laps with the highest throughput.
func quietHalf(ls []lap) []lap {
	q := append([]lap(nil), ls...)
	sort.SliceStable(q, func(i, j int) bool {
		return q[i].wall.Seconds()*float64(q[j].ops) < q[j].wall.Seconds()*float64(q[i].ops)
	})
	return q[:(len(q)+1)/2]
}

// measured is the raw material of the end-to-end metrics.
type measured struct {
	tally *tally
	laps  []lap
	// perSample is how many ops one latency sample is the mean of (1
	// except on the hit path).
	perSample int
	// unequalLaps is set when the laps do different amounts of work, so
	// that a fast lap is a cheap one, not a quiet one; the timing
	// metrics are then over all of them.
	unequalLaps bool
	// regime is non-nil when the workload ran outside the cache regime
	// it exists to measure; the run is then wrong, not slow.
	regime error
	notes  []string
}

// endToEnd is one untraced run of a workload.
type endToEnd struct {
	m        *measured
	setups   []float64
	liveHeap float64
	// slowdown is how much slower than the reference the machine ran in
	// the median lap. The laps below are already at reference speed.
	slowdown float64
	// The timed (quiet) laps' count and totals, their pooled latency
	// samples sorted, and the tail percentile that many samples support.
	timedLaps int
	quietOps  int
	quietWall time.Duration
	sorted    []int64
	tailP     float64
}

// newEndToEnd derives a run's metrics from its set-up durations (already
// at reference speed), its laps, and how many times slower than the
// reference the machine ran during each lap.
func newEndToEnd(m *measured, setups []float64, liveHeap float64, lapSlowdown []float64) *endToEnd {
	e := &endToEnd{m: m, setups: setups, liveHeap: liveHeap, slowdown: median(lapSlowdown)}
	timed := make([]lap, len(m.laps))
	for i, l := range m.laps {
		timed[i] = l.atReference(lapSlowdown[i])
	}
	if !m.unequalLaps {
		timed = quietHalf(timed)
	}
	e.timedLaps = len(timed)
	for _, l := range timed {
		e.quietOps, e.quietWall = e.quietOps+l.ops, e.quietWall+l.wall
		e.sorted = append(e.sorted, l.ns...)
	}
	sort.Slice(e.sorted, func(i, j int) bool { return e.sorted[i] < e.sorted[j] })
	e.tailP = tailPercentile(len(e.sorted))
	return e
}

func (e *endToEnd) correct() bool { return e.m.tally.failed == 0 && e.m.regime == nil }

// metrics returns the end-to-end metrics, in endToEndMetrics' order.
func (e *endToEnd) metrics() []metric {
	values := []float64{
		median(e.setups),
		float64(e.quietOps) / e.quietWall.Seconds(),
		float64(percentile(e.sorted, 50)) / 1e3,
		float64(percentile(e.sorted, e.tailP)) / 1e3,
		e.liveHeap,
		e.m.tally.aso(),
		e.m.tally.maxSubOpt,
	}
	ms := make([]metric, len(endToEndMetrics))
	for i, def := range endToEndMetrics {
		ms[i] = metric{def.name, def.unit, values[i]}
	}
	return ms
}

type metric struct {
	name, unit string
	value      float64
}

// standUp runs the workload's set-up setupReps times and returns the
// last instance with every set-up duration in seconds at reference
// speed.
func standUp(def *workloadDef, o *runOpts) (instance, []float64, error) {
	o.cal.take()
	var (
		inst   instance
		setups []float64
	)
	for rep := 0; rep < def.setupReps; rep++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		o.probe()
		t0 := time.Now()
		var err error
		inst, err = def.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.probe()
	for i, slow := range o.cal.take() {
		setups[i] /= slow
	}
	return inst, setups, nil
}

// standUpOnce is standUp for the traced pass, which needs no set-up
// timing.
func standUpOnce(def *workloadDef, o *runOpts) (instance, error) {
	once := *def
	once.setupReps = 1
	inst, _, err := standUp(&once, o)
	return inst, err
}

func runEndToEnd(def *workloadDef, o *runOpts) (*endToEnd, error) {
	inst, setups, err := standUp(def, o)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	runtime.GC()
	m, err := inst.measure(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	o.probe()
	// The live heap is read before teardown: the instance is still
	// referenced.
	return newEndToEnd(m, setups, liveHeapMiB(), o.cal.take()), nil
}

// scratchDir creates a fresh directory under .bench_build in the
// current checkout.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
