package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON loads the repository's BENCHMARK.json, which sits one
// directory above this package.
func benchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	f, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFile holds BENCHMARK.json to the driver's limits and to
// the harness's own metric tables: every declared metric is one the
// harness prints, with the same unit, and none is printed undeclared.
func TestBenchmarkFile(t *testing.T) {
	f := benchmarkJSON(t)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", f.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEndMetrics))
	}
	setup := false
	for i, m := range f.EndToEnd {
		name(m.Name)
		if def := endToEndMetrics[i]; m.Name != def.name || m.Unit != def.unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, def.name, def.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayerMetrics))
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		if def := perLayerMetrics[i]; m.Name != def.name || m.Unit != def.unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, def.name, def.unit)
		}
	}
}

// smokeSize runs every workload at a hundredth of its size.
const smokeSize = 0.01

// TestBenchSmoke stands every workload up once at 1/100 size and runs
// both passes on it: the untraced one must be correct and yield exactly
// the end-to-end metrics BENCHMARK.json names, the traced one only
// per-layer metrics BENCHMARK.json names.
func TestBenchSmoke(t *testing.T) {
	f := benchmarkJSON(t)
	perLayer := map[string]bool{}
	for _, m := range f.PerLayer {
		perLayer[m.Name] = true
	}
	start := time.Now()
	for _, d := range workloads {
		began := time.Now()
		o := &runOpts{seed: 1, size: smokeSize, tmp: t.TempDir(), cal: newCalibrator()}
		inst, err := d.setup(o)
		if err != nil {
			t.Fatalf("%s: set-up: %v", d.name, err)
		}
		m, err := inst.measure(o)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		o.probe()
		e := newEndToEnd(m, []float64{1}, liveHeapMiB(), o.cal.take())
		if !e.correct() {
			t.Errorf("%s: %d of %d ops failed, regime %v", d.name, m.tally.failed, m.tally.attempted, m.regime)
		}
		got := e.metrics()
		if len(got) != len(f.EndToEnd) {
			t.Fatalf("%s printed %d end-to-end metrics, BENCHMARK.json names %d", d.name, len(got), len(f.EndToEnd))
		}
		for i, x := range got {
			if want := f.EndToEnd[i]; x.name != want.Name || x.unit != want.Unit {
				t.Errorf("%s: metric %d is %s [%s], want %s [%s]", d.name, i, x.name, x.unit, want.Name, want.Unit)
			}
			if x.value <= 0 {
				t.Errorf("%s: %s = %g, end-to-end metrics are never 0", d.name, x.name, x.value)
			}
		}
		lv, err := inst.layers(o, newTracer())
		if err != nil {
			t.Fatalf("%s: traced pass: %v", d.name, err)
		}
		for name := range lv {
			if !perLayer[name] {
				t.Errorf("%s: traced pass yields %q, which BENCHMARK.json does not name", d.name, name)
			}
		}
		if lv["trace.overhead_ratio"] <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %g", d.name, lv["trace.overhead_ratio"])
		}
		inst.close()
		t.Logf("%s: %.1f s", d.name, time.Since(began).Seconds())
	}
	t.Logf("five workloads, both passes, in %.1f s", time.Since(start).Seconds())
}

// TestCommandLine drives the cheapest workload through the command's
// own entry point, as the driver does, and reads the result line back.
func TestCommandLine(t *testing.T) {
	f := benchmarkJSON(t)
	t.Chdir(t.TempDir()) // the command writes .bench_build under its working directory
	for _, tc := range []struct {
		trace string
		want  int
	}{{"0", len(f.EndToEnd)}, {"1", len(f.PerLayer)}} {
		var out, errs bytes.Buffer
		args := []string{"--workload", "serve_tenants", "--seed", "3", "--seconds", "0.1", "--trace", tc.trace}
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != tc.want {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d with %d metrics, want %d",
				tc.trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), tc.want)
		}
		// Every metric is also printed by name with its unit.
		for name, m := range res.Metrics {
			if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`).MatchString(out.String()) {
				t.Errorf("trace %s: %s [%s] is not printed by name and unit", tc.trace, name, m.Unit)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(".bench_build", "spans-serve_tenants.jsonl")); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload exits 0")
	}
}

// TestSeedDeterminism: the same seed generates the same request
// sequence and the program answers it with the same result_hash; another
// seed generates another sequence.
func TestSeedDeterminism(t *testing.T) {
	sequence := func(seed uint64) string {
		var b strings.Builder
		for _, r := range lazyRequests(200, 5, seed) {
			b.Write(r.body)
		}
		return b.String()
	}
	if sequence(7) != sequence(7) {
		t.Error("lazy request sequence differs under one seed")
	}
	if sequence(7) == sequence(8) {
		t.Error("lazy request sequence is the same under two seeds")
	}

	hash := func(seed uint64) (uint64, []int32) {
		o := &runOpts{seed: seed, size: smokeSize, tmp: t.TempDir(), cal: newCalibrator()}
		inst, err := setupMiss(o)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		m, err := inst.measure(o)
		if err != nil {
			t.Fatal(err)
		}
		if m.tally.failed != 0 {
			t.Fatalf("seed %d: %d ops failed", seed, m.tally.failed)
		}
		return m.tally.hash, inst.(*missInst).order
	}
	h1, order1 := hash(7)
	h2, order2 := hash(7)
	h3, order3 := hash(8)
	if h1 != h2 || !equalInt32(order1, order2) {
		t.Errorf("seed 7 twice: result_hash %016x and %016x", h1, h2)
	}
	if h1 == h3 || equalInt32(order1, order3) {
		t.Errorf("seeds 7 and 8 give the same sequence or result_hash %016x", h1)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTailPercentile pins the percentile rule: the reported tail is the
// higher of p99 and p90 that leaves at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 50}, {99, 50}, {100, 90}, {216, 90}, {999, 90}, {1000, 99}, {1200, 99}, {81920, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}, {100, 1000}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %g) = %d, want %d", tc.p, got, tc.want)
		}
	}
	// Ten samples lie beyond the chosen tail.
	if beyond := len(sorted) - int(percentile(sorted, tailPercentile(len(sorted)))); beyond != 10 {
		t.Errorf("%d samples beyond the tail of 1000, want 10", beyond)
	}
}

// TestTimeBatch: one pair of clock reads brackets the whole batch and
// the result is the mean per op.
func TestTimeBatch(t *testing.T) {
	calls := 0
	per := timeBatch(hotBatch, func() {
		calls++
		if calls%8 == 0 {
			time.Sleep(time.Millisecond)
		}
	})
	if calls != hotBatch {
		t.Fatalf("op ran %d times, want %d", calls, hotBatch)
	}
	// Eight sleeps of at least 1 ms spread over 64 ops.
	if lo := 8 * time.Millisecond / hotBatch; per < lo || per > 20*lo {
		t.Errorf("mean per op %v, want about %v", per, lo)
	}
}

// TestReferenceSpeed: a lap is scaled by the mean of the probes on
// either side of it, over the reference.
func TestReferenceSpeed(t *testing.T) {
	ref := float64(probeReference)
	c := &calibrator{probes: []float64{ref, 3 * ref, ref}}
	slow := c.take()
	if len(slow) != 2 || slow[0] != 2 || slow[1] != 2 || len(c.probes) != 0 {
		t.Fatalf("take() = %v, %d probes left; want [2 2] and none", slow, len(c.probes))
	}
	l := lap{ops: 10, wall: 4 * time.Second, ns: []int64{200, 400}}.atReference(slow[0])
	if l.ops != 10 || l.wall != 2*time.Second || l.ns[0] != 100 || l.ns[1] != 200 {
		t.Errorf("lap at reference speed = %+v", l)
	}
	// The quiet half is the half with the highest throughput.
	q := quietHalf([]lap{{ops: 1, wall: 3}, {ops: 1, wall: 1}, {ops: 2, wall: 4}, {ops: 1, wall: 5}})
	if len(q) != 2 || q[0].wall != 1 || q[1].wall != 4 {
		t.Errorf("quietHalf = %+v", q)
	}
}

var allocSink [][]byte

// TestAllocMeter: the meter reads the TotalAlloc delta, so garbage
// collected in between still counts and nothing else does.
func TestAllocMeter(t *testing.T) {
	const ops, size = 16, 1 << 20
	m := startAllocMeter()
	for i := 0; i < ops; i++ {
		allocSink = append(allocSink[:0], make([]byte, size))
		liveHeapMiB() // a collection in between must not hide the allocation
	}
	got := perOp(float64(m.bytes()), ops)
	if got < size || got > size*1.1 {
		t.Errorf("%g bytes per op, want about %d", got, size)
	}
	quiet := startAllocMeter()
	if got := quiet.bytes(); got > 1024 {
		t.Errorf("idle meter read %d bytes", got)
	}
}

// TestSelfTimes: self time is a span's duration minus its direct
// children's, on a synthetic tree, floored at zero for a replayed child
// that ran longer than the root it stands inside.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "decode", StartNS: 100, EndNS: 110, Parent: 0, Replayed: true},
		{Name: "discover", StartNS: 110, EndNS: 170, Parent: 0, Replayed: true},
		{Name: "exec", StartNS: 120, EndNS: 140, Parent: 2},
		{Name: "exec", StartNS: 145, EndNS: 150, Parent: 2},
		{Name: "root", StartNS: 200, EndNS: 210, Parent: -1},
		{Name: "discover", StartNS: 210, EndNS: 240, Parent: 5, Replayed: true},
	}
	want := []int64{30, 10, 35, 20, 5, 0, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	sum := summarize(spans, false)
	if us := sum.medianSelfUS("exec"); us != 0.005 { // nearest rank: the lower of two
		t.Errorf("median self of exec = %g us, want 0.005", us)
	}
	if ns, calls, _ := sum.total("exec"); ns != 25 || calls != 2 {
		t.Errorf("total of exec = %d ns in %d calls, want 25 in 2", ns, calls)
	}
}

// TestTracerNesting: spans opened under a root become its descendants,
// folded lookups surface as one child with their call count, and
// nothing below a stage is recorded on a request traced without detail.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	for tr.req = 0; ; {
		id := tr.root("root")
		stage := tr.begin("stage")
		if tr.detailed() {
			tr.lookup(lookupCostAt, 500)
			tr.lookup(lookupCostAt, 700)
		}
		tr.end(stage)
		tr.end(id)
		if tr.spans[id].Detailed {
			break
		}
	}
	last := tr.spans[len(tr.spans)-1]
	if last.Name != lookupKinds[lookupCostAt] || last.Count != 2 || tr.spans[last.Parent].Name != "stage" {
		t.Errorf("folded lookup span = %+v", last)
	}
	if tr.detailed() {
		t.Error("tracer still detailed after the root closed")
	}
}
