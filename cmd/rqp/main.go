// Command rqp runs the robust-query-processing experiment suite: each
// subcommand regenerates one table or figure of the paper (see
// DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	rqp [flags] <experiment>
//
// Experiments:
//
//	ocs      Fig. 3   optimal cost surface (EQ)
//	trace    Fig. 7   2D-SpillBound execution trace (Q91)
//	fig8     Fig. 8   MSO guarantees, PB vs SB
//	fig9     Fig. 9   MSOg vs dimensionality (Q91 family)
//	fig10    Fig. 10  empirical MSO, PB vs SB
//	fig11    Fig. 11  ASO, PB vs SB
//	fig12    Fig. 12  sub-optimality histogram (4D_Q91)
//	fig13    Fig. 13  empirical MSO, SB vs AB
//	table2   Table 2  contour alignment penalties
//	table3   Table 3  wall-clock drill-down (real executions; -exec-workers)
//	table4   Table 4  AlignedBound maximum penalties
//	job      §6.5     JOB benchmark query 1a
//	summary            combined guarantees + MSOe overview
//	ablations          design-choice ablation studies
//	discover           single discovery trace (-query, -alg, -qa)
//	explain            optimal plan + pipelines at -qa (-query)
//	mso                MSO/ASO sweep for one query (-query, -alg, -stride)
//	bakeoff            comparative strategy scorecard: every registered
//	                   robust-QP strategy swept fault-free and under the
//	                   -chaos-seed/-chaos-rate schedule (-query, -strategies,
//	                   -experiments-file); see DESIGN.md §12
//	herd               request-herd scenario: -runs identical /discover
//	                   requests against an in-process replica, measuring
//	                   compile coalescing and 429 Retry-After behavior
//	                   (-query, -runs, -chaos-seed, -chaos-rate)
//	serve              long-running discovery service (-addr, -workloads,
//	                   -snapshot-dir, -peers, -self, -cache-bytes,
//	                   -outcome-cache-bytes); see DESIGN.md §10, §14, §16
//	list               available workload queries
//	all                everything above except ablations
//
// The discover and mso commands accept -deadline, which
// bounds the whole invocation by a context deadline: on expiry the
// discovery aborts at the next execution boundary with a typed error
// and a partial trace, exactly as a served request would.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rqp:", err)
		os.Exit(1)
	}
}

// sweepCfg carries the POSP sweep tuning flags to space builds.
type sweepCfg struct {
	res    int
	theta  float64
	coarse int
	mode   string // -ess-mode: eager | lazy
}

func (c sweepCfg) config() ess.Config {
	return ess.Config{Res: c.res, Theta: c.theta, CoarseStep: c.coarse}
}

// source builds the named workload's contour provider per -ess-mode.
func (c sweepCfg) source(name string, scale float64) (ess.ContourSource, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Source(c.mode, scale, c.config())
}

// compile builds the named workload's provider and compiles it.
func (c sweepCfg) compile(name string, scale float64, opts core.CompileOptions) (*core.Compiled, error) {
	src, err := c.source(name, scale)
	if err != nil {
		return nil, err
	}
	return core.CompileSource(src, opts)
}

func run(args []string) error {
	fs := flag.NewFlagSet("rqp", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "catalog scale factor")
	res := fs.Int("res", 0, "grid resolution override (0 = per-query default)")
	stride := fs.Int("stride", 3, "5D/6D MSO sweep stride (also the mso command's stride)")
	lambda := fs.Float64("lambda", 0.2, "PlanBouquet anorexic reduction threshold")
	queryName := fs.String("query", "4D_Q91", "query for the discover command")
	alg := fs.String("alg", "spillbound", "algorithm for discover: planbouquet|spillbound|alignedbound")
	strategies := fs.String("strategies", "", "comma-separated strategy names for bakeoff (empty = all registered)")
	experimentsFile := fs.String("experiments-file", "", "markdown file whose bakeoff section is rewritten (empty = stdout only)")
	qaFlag := fs.String("qa", "", "true selectivities for discover, comma-separated (e.g. 0.04,0.1)")
	chaosSeed := fs.Uint64("chaos-seed", 0, "fault-injection seed for discover (with -chaos-rate)")
	chaosRate := fs.Float64("chaos-rate", 0, "per-site fault probability in [0,1] for discover (0 = off)")
	chaosAllowRequest := fs.Bool("chaos-allow-request", false, "let serve clients arm their own fault_rate even when -chaos-rate is 0 (chaos testing only)")
	runs := fs.Int("runs", 64, "identical /discover requests in the herd")
	execLatency := fs.Duration("exec-latency", 0, "simulated per-execution engine latency for serve (e.g. 2ms)")
	deadline := fs.Duration("deadline", 0, "abort discover/mso after this long (0 = unbounded); also serve's default request timeout")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address for serve")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = disabled)")
	serveWorkloads := fs.String("workloads", "EQ", "comma-separated workload queries for serve")
	snapshotDir := fs.String("snapshot-dir", "", "crash-safe artifact cache directory for serve (empty = in-memory only)")
	maxConcurrent := fs.Int("max-concurrent", 4, "concurrent discovery slots for serve")
	maxQueue := fs.Int("max-queue", 16, "admission queue depth for serve (beyond it: 429)")
	peers := fs.String("peers", "", "comma-separated replica base URLs for shard-out serve (e.g. http://h1:8080,http://h2:8080; empty = single replica)")
	selfURL := fs.String("self", "", "this replica's own base URL within -peers")
	cacheBytes := fs.Int64("cache-bytes", 0, "byte budget for serve's signature-keyed artifact cache (0 = 256 MiB)")
	outcomeCacheBytes := fs.Int64("outcome-cache-bytes", 0, "byte budget for serve's deterministic outcome cache (0 = 64 MiB, negative disables)")
	execWorkers := fs.Int("exec-workers", 0, "intra-query morsel workers for real executions: table3 applies it directly, serve uses it as the per-request exec_workers cap (0 = defaults: 1 local, 8 serve)")
	essMode := fs.String("ess-mode", "eager", "contour provider: eager (full POSP sweep up front) or lazy (demand-driven)")
	theta := fs.Float64("theta", 0, "recost fallback gate width (0 = default, <0 = exact)")
	coarse := fs.Int("coarse", 0, "phase-1 coarse lattice stride (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing experiment name")
	}
	cmd := fs.Arg(0)
	// Accept flags after the subcommand too (flag stops at the first
	// positional argument).
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q after %s (only flags may follow the subcommand)", fs.Arg(0), cmd)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rqp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rqp: memprofile:", err)
			}
		}()
	}

	if err := workload.CheckMode(*essMode); err != nil {
		return fmt.Errorf("-ess-mode: %w", err)
	}
	cfg := sweepCfg{res: *res, theta: *theta, coarse: *coarse, mode: *essMode}
	h := experiments.New(experiments.Options{
		Scale: *scale, Res: *res, Lambda: *lambda, StrideHighD: *stride,
		Theta: *theta, ExecWorkers: *execWorkers, EssMode: *essMode,
	})

	type exp struct {
		name string
		run  func() (*experiments.Report, error)
	}
	table := []exp{
		{"ocs", h.Fig3OCS},
		{"trace", h.Fig7Trace},
		{"fig8", h.Fig8MSOg},
		{"fig9", h.Fig9Dimensionality},
		{"fig10", h.Fig10MSOe},
		{"fig11", h.Fig11ASO},
		{"fig12", h.Fig12Histogram},
		{"fig13", h.Fig13MSOeAB},
		{"table2", h.Table2Alignment},
		{"table3", h.Table3WallClock},
		{"table4", h.Table4Penalty},
		{"job", h.JOB},
		{"summary", h.SuiteSummary},
	}
	ablations := []exp{
		{"cost-ratio", h.AblationCostRatio},
		{"lambda", h.AblationAnorexicLambda},
		{"grid", h.AblationGridResolution},
		{"probes", h.AblationOptimizerProbes},
		{"1d-endgame", h.AblationOneDEndgame},
		{"cost-model-error", h.AblationCostModelError},
	}

	switch cmd {
	case "list":
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return nil
	case "discover":
		return discover(*queryName, *alg, *qaFlag, *scale, cfg, *chaosSeed, *chaosRate, *deadline)
	case "explain":
		return explain(*queryName, *qaFlag, *scale, cfg)
	case "mso":
		return msoSweep(*queryName, *alg, *scale, cfg, *stride, *deadline)
	case "bakeoff":
		return bakeoff(*queryName, *strategies, *scale, cfg, *chaosSeed, *chaosRate,
			*stride, *experimentsFile)
	case "herd":
		return herd(*queryName, *runs, *scale, *res, *chaosSeed, *chaosRate, *deadline)
	case "serve":
		return serve(serveConfig{
			addr: *addr, pprofAddr: *pprofAddr, workloads: *serveWorkloads,
			scale: *scale, res: *res, essMode: *essMode,
			snapshotDir: *snapshotDir, maxConcurrent: *maxConcurrent,
			maxQueue: *maxQueue, maxExecWorkers: *execWorkers, defaultTimeout: *deadline,
			execLatency: *execLatency, chaosSeed: *chaosSeed, chaosRate: *chaosRate,
			chaosAllowRequest: *chaosAllowRequest,
			peers:             *peers, selfURL: *selfURL, cacheBytes: *cacheBytes,
			outcomeCacheBytes: *outcomeCacheBytes,
		})
	case "all":
		for _, e := range table {
			if err := render(e.run); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	case "ablations":
		for _, e := range ablations {
			if err := render(e.run); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	}
	for _, e := range table {
		if e.name == cmd {
			return render(e.run)
		}
	}
	return fmt.Errorf("unknown experiment %q (try: rqp list|all|ablations)", cmd)
}

func render(f func() (*experiments.Report, error)) error {
	rep, err := f()
	if err != nil {
		return err
	}
	rep.Render(os.Stdout)
	fmt.Println()
	return nil
}

// printSweepStats reports how the contour provider did its work, in
// provider-agnostic form: a lazy source reports settled points and
// cache/refinement activity instead of the misleading zeros that
// reading eager sweep counters directly would produce.
func printSweepStats(src ess.ContourSource) {
	p := src.Profile()
	switch {
	case strings.HasPrefix(p.Mode, "lazy"):
		fmt.Printf("sweep: %s, %d/%d points settled on demand (%d contours built, %d hits / %d misses), %d DP calls, %d recost-settled (%d recosts), %d refinement rounds (%d points changed, epoch %d), %d plans\n",
			p.Mode, p.Settled, p.Points, p.ContoursBuilt, p.Hits, p.Misses,
			p.DPCalls, p.RecostPoints, p.RecostCalls,
			p.Refinements, p.RefinedPoints, p.Epoch, src.NumPlans())
	case p.RecostPoints == 0 && p.Fallbacks == 0:
		fmt.Printf("sweep: %s, %d DP calls, %d plans\n", p.Mode, p.DPCalls, src.NumPlans())
	default:
		fmt.Printf("sweep: %s, %d points, %d DP calls (%.1fx reduction: %d lattice, %d fallback, %d repair), %d recost-settled (%d recosts), fallback rate %.2f, %d plans\n",
			p.Mode, p.Points, p.DPCalls, p.DPReduction(), p.LatticeDP, p.Fallbacks,
			p.Repairs, p.RecostPoints, p.RecostCalls, p.FallbackRate(), src.NumPlans())
	}
}

// memSummary prints a one-line allocation/GC profile of the run so far,
// from runtime/metrics.
func memSummary() {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(samples)
	v := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	fmt.Printf("runtime: %.1f MiB allocated, %d GC cycles, %.1f MiB live heap\n",
		float64(v(0))/(1<<20), v(1), float64(v(2))/(1<<20))
}

// deadlineCtx builds the invocation-bounding context for -deadline
// (nil when unbounded).
func deadlineCtx(deadline time.Duration) (context.Context, context.CancelFunc) {
	if deadline <= 0 {
		return nil, func() {}
	}
	return context.WithTimeout(context.Background(), deadline)
}

// msoSweep runs a full MSO/ASO sweep for one query and reports the
// guarantee alongside the empirical result.
func msoSweep(name, algName string, scale float64, cfg sweepCfg, stride int, deadline time.Duration) error {
	c, err := cfg.compile(name, scale, core.CompileOptions{})
	if err != nil {
		return err
	}
	src := c.Source
	ctx, cancel := deadlineCtx(deadline)
	defer cancel()
	res, err := mso.Sweep(src, func(qa int32) (*core.Outcome, error) {
		r := c.NewRun()
		if ctx != nil {
			r.WithContext(ctx)
		}
		return r.Discover(core.Algorithm(algName), qa)
	}, mso.Options{Stride: stride})
	if aerr := discovery.AbortCause(err); aerr != nil {
		return fmt.Errorf("sweep aborted by -deadline %v: %w", deadline, aerr.Err)
	}
	if err != nil {
		return err
	}
	g, _ := c.Guarantee(core.Algorithm(algName))
	sel := src.Geometry().Sel(int(res.ArgMax), nil)
	fmt.Printf("%s via %s: MSOe %.4f (guarantee %.1f), ASO %.4f over %d locations, worst at %v\n",
		name, algName, res.MSO, g, res.ASO, len(res.Points), sel)
	printSweepStats(src)
	memSummary()
	return nil
}

// bakeoff sweeps every requested strategy over one workload —
// fault-free and under the -chaos-seed/-chaos-rate schedule — and
// prints the comparative scorecard, optionally rewriting the bakeoff
// section of -experiments-file. The sweep stride follows the 5D/6D
// convention of the other experiments: exhaustive below 5 dimensions.
func bakeoff(name, strategiesFlag string, scale float64, cfg sweepCfg,
	chaosSeed uint64, chaosRate float64, stride int, experimentsFile string) error {
	c, err := cfg.compile(name, scale, core.CompileOptions{PrimeAlignment: true})
	if err != nil {
		return err
	}
	opts := experiments.BakeoffOptions{ChaosSeed: chaosSeed, ChaosRate: chaosRate}
	if strategiesFlag != "" {
		for _, s := range strings.Split(strategiesFlag, ",") {
			opts.Strategies = append(opts.Strategies, strings.TrimSpace(s))
		}
	}
	if c.Source.Geometry().D >= 5 {
		opts.Stride = stride
	}
	res, err := experiments.Bakeoff(c, name, opts)
	if err != nil {
		return err
	}
	res.Report().Render(os.Stdout)
	printSweepStats(c.Source)
	if experimentsFile != "" {
		if err := res.UpdateExperimentsFile(experimentsFile); err != nil {
			return err
		}
		fmt.Printf("bakeoff section rewritten in %s\n", experimentsFile)
	}
	return nil
}

// explain prints the optimal plan and its pipeline decomposition at the
// given selectivities.
func explain(name, qaFlag string, scale float64, cfg sweepCfg) error {
	src, err := cfg.source(name, scale)
	if err != nil {
		return err
	}
	g, q := src.Geometry(), src.Query()
	qaIdx, err := parseQA(g, qaFlag)
	if err != nil {
		return err
	}
	qa := int32(g.Linear(qaIdx))
	pid := src.PlanAt(qa)
	root := src.Plan(pid).Root
	sel := g.Sel(int(qa), nil)
	fmt.Printf("%s: optimal plan P%d at selectivities %v (cost %.4g)\n\n",
		name, pid, sel, src.CostAt(qa))
	fmt.Print(plan.Format(root, q))
	fmt.Println("\npipelines (execution order):")
	fmt.Print(plan.FormatPipelines(root, q))
	remaining := map[int]bool{}
	for _, id := range q.EPPs {
		remaining[id] = true
	}
	if j := plan.SpillJoin(root, remaining); j >= 0 {
		fmt.Printf("\nspill-node identification: join %d (ESS dimension %d)\n",
			j, q.EPPDim(j))
	}
	return nil
}

// parseQA resolves a comma-separated selectivity list (or the grid
// midpoint when empty) to grid indexes.
func parseQA(g *ess.Grid, qaFlag string) ([]int, error) {
	var qaIdx []int
	if qaFlag == "" {
		for d := 0; d < g.D; d++ {
			qaIdx = append(qaIdx, g.Res/2)
		}
		return qaIdx, nil
	}
	parts := strings.Split(qaFlag, ",")
	if len(parts) != g.D {
		return nil, fmt.Errorf("query needs %d selectivities, got %d", g.D, len(parts))
	}
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		qaIdx = append(qaIdx, g.NearestIndex(v))
	}
	return qaIdx, nil
}

// herd runs the request-herd scenario: an in-process replica is
// started with only EQ pinned, then -runs identical /discover requests
// for -query arrive simultaneously, exercising the signature-keyed
// compile cache and singleflight coalescing (one compile for the whole
// herd). With chaos armed, cache-evict and coalesce-leader faults fire
// from the seed's deterministic schedule.
func herd(name string, size int, scale float64, res int, chaosSeed uint64, chaosRate float64, deadline time.Duration) error {
	if size <= 0 {
		size = 64
	}
	timeout := deadline
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	s, err := server.New(server.Config{
		Workloads: []string{"EQ"}, Scale: scale, Res: res,
		MaxConcurrent: 8, MaxQueue: size,
		DefaultTimeout: timeout,
		FaultSeed:      chaosSeed, FaultRate: chaosRate,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	err = s.WaitReady(wctx)
	wcancel()
	if err != nil {
		cancel()
		return err
	}
	body, err := json.Marshal(server.DiscoverRequest{Workload: name, Algorithm: "sb", FaultSeed: chaosSeed})
	if err != nil {
		cancel()
		return err
	}
	fmt.Printf("herd: %d identical /discover requests for %s (chaos rate %g)\n", size, name, chaosRate)
	hres, herr := experiments.Herd(experiments.HerdOptions{
		BaseURL: "http://" + ln.Addr().String(), Body: body,
		Concurrency: size, Seed: chaosSeed,
	})
	cancel()
	<-served
	if herr != nil {
		return herr
	}
	fmt.Printf("  %s\n", hres)
	cs := s.CacheStats()
	fmt.Printf("  compiles %d  cache hits %d misses %d evictions %d (coalesced herd pays one compile)\n",
		s.CompileCount(name), cs.Hits, cs.Misses, cs.Evictions)
	return nil
}

// discover runs one discovery and prints its trace. With a nonzero
// chaos rate, every fault-injection site is armed at that rate from the
// seed's deterministic schedule, and the degradation/retry summary is
// printed after the trace.
func discover(name, algName, qaFlag string, scale float64, cfg sweepCfg, chaosSeed uint64, chaosRate float64, deadline time.Duration) error {
	c, err := cfg.compile(name, scale, core.CompileOptions{})
	if err != nil {
		return err
	}
	src := c.Source
	g := src.Geometry()
	qaIdx, err := parseQA(g, qaFlag)
	if err != nil {
		return err
	}
	qa := int32(g.Linear(qaIdx))
	var chaos *faultinject.Injector
	if chaosRate > 0 {
		chaos = faultinject.NewUniform(chaosSeed, chaosRate)
	}
	ctx, cancel := deadlineCtx(deadline)
	defer cancel()
	r := c.NewRun().WithFaults(chaos)
	if ctx != nil {
		r.WithContext(ctx)
	}
	out, err := r.Discover(core.Algorithm(algName), qa)
	aborted := discovery.AbortCause(err)
	if err != nil && aborted == nil {
		return err
	}
	sel := g.Sel(int(qa), nil)
	fmt.Printf("%s via %s at qa=%v (grid point %d)\n", name, algName, sel, qa)
	if aborted != nil {
		fmt.Printf("  ABORTED by -deadline %v (%v); partial trace follows\n", deadline, aborted.Err)
	}
	for i, st := range out.Steps {
		mode := "full "
		if st.Phase == discovery.PhaseSpill {
			mode = "spill"
		}
		status := "killed"
		if st.Completed {
			status = "done"
		}
		fmt.Printf("  %2d. IC%-2d %s P%-3d dim=%-2d budget=%.4g cost=%.4g %s\n",
			i+1, st.Contour, mode, st.PlanID, st.Dim, st.Budget, st.Cost, status)
	}
	guar, _ := c.Guarantee(core.Algorithm(algName))
	opt := src.CostAt(qa)
	fmt.Printf("total cost %.4g, optimal %.4g, sub-optimality %.2f (guarantee %.1f)\n",
		out.TotalCost, opt, out.SubOpt(opt), guar)
	printSweepStats(src)
	memSummary()
	if chaos != nil {
		fmt.Printf("chaos: seed=%d rate=%g, %d faults fired, %d retries, wasted cost %.4g\n",
			chaosSeed, chaosRate, chaos.Count(), out.Retries, out.WastedCost)
		if len(out.Degradations) == 0 {
			fmt.Println("  no degradations")
		}
		for _, d := range out.Degradations {
			if d.Exec > 0 {
				fmt.Printf("  exec %d: %s (%s, wasted %.4g)\n", d.Exec, d.Kind, d.Detail, d.WastedCost)
			} else {
				fmt.Printf("  %s (%s)\n", d.Kind, d.Detail)
			}
		}
	}
	return nil
}

// serveConfig carries the serve subcommand's flags.
type serveConfig struct {
	addr, pprofAddr             string
	workloads, snapshotDir      string
	essMode                     string
	scale                       float64
	res, maxConcurrent          int
	maxQueue, maxExecWorkers    int
	defaultTimeout, execLatency time.Duration
	chaosSeed                   uint64
	chaosRate                   float64
	chaosAllowRequest           bool
	peers, selfURL              string
	cacheBytes                  int64
	outcomeCacheBytes           int64
}

// serve runs the long-running discovery service until SIGTERM/SIGINT,
// then drains gracefully: readiness flips, in-flight requests finish,
// and the listener closes.
func serve(sc serveConfig) error {
	var peerList []string
	if sc.peers != "" {
		for _, p := range strings.Split(sc.peers, ",") {
			if p = strings.TrimSpace(strings.TrimSuffix(p, "/")); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	s, err := server.New(server.Config{
		Workloads:          strings.Split(sc.workloads, ","),
		Scale:              sc.scale,
		Res:                sc.res,
		ESSMode:            sc.essMode,
		SnapshotDir:        sc.snapshotDir,
		MaxConcurrent:      sc.maxConcurrent,
		MaxQueue:           sc.maxQueue,
		MaxExecWorkers:     sc.maxExecWorkers,
		DefaultTimeout:     sc.defaultTimeout,
		ExecLatency:        sc.execLatency,
		FaultSeed:          sc.chaosSeed,
		FaultRate:          sc.chaosRate,
		AllowRequestFaults: sc.chaosAllowRequest,
		PprofAddr:          sc.pprofAddr,
		Peers:              peerList,
		SelfURL:            strings.TrimSuffix(sc.selfURL, "/"),
		CacheBytes:         sc.cacheBytes,
		OutcomeCacheBytes:  sc.outcomeCacheBytes,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", sc.addr)
	if err != nil {
		return err
	}
	fmt.Printf("rqp serve: listening on http://%s (workloads %s; compiling in background)\n",
		ln.Addr(), sc.workloads)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.Serve(ctx, ln)
}
