package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/mso"
	"repro/internal/workload"
)

// Options configures the experiment harness.
type Options struct {
	// Scale is the data/catalog scale factor (default 1.0).
	Scale float64
	// Res overrides every query's grid resolution when > 0.
	Res int
	// Lambda is PlanBouquet's anorexic reduction threshold (default 0.2).
	Lambda float64
	// StrideHighD samples every n-th location in 5D/6D MSO sweeps to
	// bound runtime (default 3; 1 = exhaustive).
	StrideHighD int
	// Exact forces the exact one-DP-per-point POSP sweep when building
	// search spaces instead of the recost-first pipeline.
	Exact bool
	// Theta is the recost sweep's fallback gate width (0 = ess default;
	// ess.ThetaExact disables recosting).
	Theta float64
	// ExecWorkers is the intra-query worker count handed to the real
	// vectorized executor in wall-clock experiments (default 1). Modeled
	// costs are worker-count invariant, so this changes wall-clock
	// latency only, never a reported cost number.
	ExecWorkers int
	// EssMode selects the contour provider behind compiled artifacts:
	// "eager" (default, full POSP sweep up front) or "lazy" (demand-driven
	// discovery-time construction). Experiments that read the dense cost
	// surface directly always build eagerly.
	EssMode string
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Lambda == 0 {
		o.Lambda = core.DefaultLambda
	}
	if o.StrideHighD == 0 {
		o.StrideHighD = 3
	}
	if o.ExecWorkers < 1 {
		o.ExecWorkers = 1
	}
	if o.EssMode == "" {
		o.EssMode = "eager"
	}
	return o
}

// Harness caches built contour sources and compiled artifacts across
// experiments so that running the full battery builds and compiles each
// query's ESS only once; every experiment's per-location discoveries
// then fan out over a worker pool sharing that one Compiled.
type Harness struct {
	// Opts are the effective options.
	Opts Options

	mu        sync.Mutex
	sources   map[string]ess.ContourSource // keyed mode/spec name
	artifacts map[string]*core.Compiled
}

// New creates a harness.
func New(opts Options) *Harness {
	return &Harness{
		Opts:      opts.withDefaults(),
		sources:   make(map[string]ess.ContourSource),
		artifacts: make(map[string]*core.Compiled),
	}
}

// source returns the (cached) contour provider of a workload spec in
// the given ESS mode.
func (h *Harness) source(spec workload.Spec, mode string) (ess.ContourSource, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := mode + "/" + spec.Name
	if src, ok := h.sources[key]; ok {
		return src, nil
	}
	src, err := spec.Source(mode, h.Opts.Scale, ess.Config{
		Res: h.Opts.Res, Exact: h.Opts.Exact, Theta: h.Opts.Theta,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s (%s): %w", spec.Name, mode, err)
	}
	h.sources[key] = src
	return src, nil
}

// space returns the (cached) eager search space of a workload spec, for
// the experiments that read the dense cost surface directly.
func (h *Harness) space(spec workload.Spec) (*ess.Space, error) {
	src, err := h.source(spec, "eager")
	if err != nil {
		return nil, err
	}
	return src.(*ess.Space), nil
}

// compiled returns the (cached) compiled artifact of a workload spec,
// backed by the Options.EssMode contour provider.
func (h *Harness) compiled(spec workload.Spec) (*core.Compiled, error) {
	src, err := h.source(spec, h.Opts.EssMode)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.artifacts[spec.Name]; ok {
		return c, nil
	}
	c, err := core.CompileSource(src, core.CompileOptions{Lambda: h.Opts.Lambda})
	if err != nil {
		return nil, fmt.Errorf("experiments: compiling %s: %w", spec.Name, err)
	}
	h.artifacts[spec.Name] = c
	return c, nil
}

// sweepOpts returns the MSO sweep options for a query of dimension d.
func (h *Harness) sweepOpts(d int) mso.Options {
	opts := mso.Options{}
	if d >= 5 {
		opts.Stride = h.Opts.StrideHighD
	}
	return opts
}
