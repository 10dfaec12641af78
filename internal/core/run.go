package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core/alignedbound"
	"repro/internal/core/bouquet"
	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/faultinject"
)

// Run holds the mutable state of one discovery over a shared Compiled
// artifact: the armed fault injector (if any) and the run's penalty
// ledger. A Run is cheap to create and single-goroutine by design —
// concurrent discoveries each get their own Run, typically with their
// own forked fault substream (faultinject.Injector.Fork), and share
// everything else through the immutable Compiled.
type Run struct {
	c          *Compiled
	faults     *faultinject.Injector
	ctx        context.Context
	maxPenalty float64
}

// NewRun creates a fresh run over the compiled artifact.
func (c *Compiled) NewRun() *Run { return &Run{c: c} }

// runPool recycles Run structs for request-rate callers. A Run is
// small, but the serving hot path creates one per admitted request —
// pooling it (with the per-request response buffers) is part of the
// zero-allocation serve path.
var runPool = sync.Pool{New: func() any { return new(Run) }}

// AcquireRun returns a pooled run over the compiled artifact,
// equivalent to NewRun. Callers that can prove the run has no
// remaining references when they finish should return it with
// ReleaseRun; callers that cannot may simply drop it.
func (c *Compiled) AcquireRun() *Run {
	r := runPool.Get().(*Run)
	*r = Run{c: c}
	return r
}

// ReleaseRun zeroes the run and returns it to the pool. The run must
// not be used after release.
func ReleaseRun(r *Run) {
	if r == nil {
		return
	}
	*r = Run{}
	runPool.Put(r)
}

// Compiled returns the artifact the run executes against.
func (r *Run) Compiled() *Compiled { return r.c }

// WithFaults arms (or with nil disarms) fault injection for this run's
// simulated discoveries and returns the run. For concurrent chaos runs
// pass each run its own substream — base.Fork(runID) — so every run's
// schedule is deterministic regardless of interleaving.
func (r *Run) WithFaults(in *faultinject.Injector) *Run {
	r.faults = in
	return r
}

// Faults returns the run's armed injector (nil when disarmed).
func (r *Run) Faults() *faultinject.Injector { return r.faults }

// WithContext bounds the run's discoveries by the context and returns
// the run. An expired deadline (or a cancellation) aborts the discovery
// at the next execution boundary: the algorithm stops with a typed
// *discovery.AbortError, the partial Outcome keeps every cost unit
// consumed so far, and an "exec-abandoned" degradation records the
// abort cause. A nil or background context leaves runs unbounded.
func (r *Run) WithContext(ctx context.Context) *Run {
	r.ctx = ctx
	return r
}

// Context returns the run's bounding context (nil when unbounded).
func (r *Run) Context() context.Context { return r.ctx }

// MaxPenalty returns the largest AlignedBound partition penalty π*
// observed so far by this run (1 if only aligned contours were used; 0
// if AlignedBound never ran).
func (r *Run) MaxPenalty() float64 { return r.maxPenalty }

// simStack builds the run's cost-model-simulated execution engine for
// the instance at qa (see discovery.NewSimStack). Every discovery entry
// point (algorithm or strategy) shares this one stack.
func (r *Run) simStack(qa int32) discovery.Engine {
	return discovery.NewSimStack(r.ctx, r.c.Source, qa, r.faults, 0)
}

// Discover runs the algorithm for the query instance whose true
// location is the grid point qa, using cost-model simulated execution.
// With faults armed (WithFaults), the simulation runs behind the
// fault-injecting engine and the resilient retry driver.
func (r *Run) Discover(alg Algorithm, qa int32) (*discovery.Outcome, error) {
	return r.DiscoverWith(alg, r.simStack(qa))
}

// DiscoverWith runs the algorithm against an arbitrary execution engine
// (e.g. the real row-level executor, typically behind
// discovery.NewResilient). When the engine is a *discovery.Resilient,
// the degradations, retries, and wasted cost it recorded during the run
// are attached to the returned Outcome.
func (r *Run) DiscoverWith(alg Algorithm, eng discovery.Engine) (*discovery.Outcome, error) {
	out, err := r.dispatch(alg, eng)
	return r.finish(out, err, eng)
}

// finish applies the run-ledger epilogue shared by every discovery
// entry point: attach the resilient driver's degradation ledger, then
// stamp a run-level abort on the partial outcome.
func (r *Run) finish(out *discovery.Outcome, err error, eng discovery.Engine) (*discovery.Outcome, error) {
	if res, ok := eng.(*discovery.Resilient); ok && out != nil {
		degs, retries, wasted := res.Take()
		out.Degradations = append(out.Degradations, degs...)
		out.Retries += retries
		out.WastedCost += wasted
	}
	// A run-level abort (deadline, cancellation, drain) is stamped once
	// on the partial outcome: the execution the run was about to issue —
	// or was retrying — was abandoned, not observed-and-lost.
	if aerr := discovery.AbortCause(err); aerr != nil && out != nil {
		out.Degradations = append(out.Degradations, discovery.Degradation{
			Kind: "exec-abandoned", Detail: aerr.Err.Error(),
		})
	}
	return out, err
}

func (r *Run) dispatch(alg Algorithm, eng discovery.Engine) (*discovery.Outcome, error) {
	switch alg {
	case PlanBouquet:
		return bouquet.Run(r.c.Source, r.c.Reduction(), eng)
	case SpillBound:
		return spillbound.Run(r.c.Source, eng)
	case AlignedBound:
		return r.runAligned(eng)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
}

// runAligned runs AlignedBound with the planner-failure degradation:
// when the armed injector trips the alignment-planner site, or the
// planner panics during a chaos run, the discovery falls back to
// SpillBound — the algorithm AlignedBound refines — and the fallback is
// recorded on the Outcome. Fault-free runs never mask planner panics.
func (r *Run) runAligned(eng discovery.Engine) (out *discovery.Outcome, err error) {
	in := r.faults
	if ferr := in.Check(faultinject.SiteAlignPlanner); ferr != nil {
		return r.alignFallback(eng, ferr.Error())
	}
	if in != nil {
		defer func() {
			if rec := recover(); rec != nil {
				out, err = r.alignFallback(eng, fmt.Sprintf("planner panic: %v", rec))
			}
		}()
	}
	out, pen, err := alignedbound.Run(r.c.Source, r.c.planner, eng)
	if out != nil {
		out.AlignPenalty = pen
	}
	if pen > r.maxPenalty {
		r.maxPenalty = pen
	}
	return out, err
}

// alignFallback degrades an AlignedBound discovery to SpillBound,
// stamping the Outcome with the "alignment-fallback" degradation.
func (r *Run) alignFallback(eng discovery.Engine, detail string) (*discovery.Outcome, error) {
	out, err := spillbound.Run(r.c.Source, eng)
	if out != nil {
		out.Degradations = append(out.Degradations, discovery.Degradation{
			Kind: "alignment-fallback", Detail: detail,
		})
	}
	return out, err
}
