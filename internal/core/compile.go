package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core/alignedbound"
	"repro/internal/core/bouquet"
	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/ess"
	"repro/internal/mso"
)

// CompileOptions parameterizes Compile.
type CompileOptions struct {
	// Lambda is the anorexic-reduction threshold; 0 means DefaultLambda.
	Lambda float64
	// PrimeAlignment additionally precomputes the alignment planner's
	// root-slice decisions, so concurrent AlignedBound runs start from a
	// warm cache instead of serializing on the planner mutex.
	PrimeAlignment bool
}

// Compiled is the immutable compile-time artifact of a search space:
// the contour provider, the anorexic reduction, and the alignment
// planner. Building it is the once-per-workload step; afterwards any
// number of concurrent Runs — and the MSO sweep's worker pool — share
// one Compiled without synchronization on the discovery hot path.
//
// The reduction is built on first use (sync.Once): over a lazy source
// it enumerates every full-grid contour, which is exactly the eager
// materialization the demand-driven path avoids, so SpillBound- and
// AlignedBound-only serving never pays for it. The structure stays
// immutable under online refinement — a refining source publishes its
// overlay behind an atomic pointer and bumps its Epoch, which the
// planner keys its decision cache by.
type Compiled struct {
	// Source is the contour provider every run consumes: an eager
	// *ess.Space or a demand-driven *ess.LazySpace.
	Source ess.ContourSource
	// Lambda is the anorexic-reduction threshold the artifact was
	// compiled with.
	Lambda float64

	redOnce   sync.Once
	reduction *ess.Reduction
	planner   *alignedbound.Planner

	// preps memoizes strategy compile-time state per strategy name
	// (values are *prepEntry); see strategyPrep.
	preps sync.Map
}

// Compile builds the compile-time artifact for an eager space; it is
// CompileSource under the name eager callers have always used.
func Compile(space *ess.Space, opts CompileOptions) (*Compiled, error) {
	return CompileSource(space, opts)
}

// CompileSource builds the compile-time artifact over any contour
// provider. Over a *LazySpace nothing materializes up front: the
// reduction and the planner's decisions are computed on first use.
func CompileSource(src ess.ContourSource, opts CompileOptions) (*Compiled, error) {
	lambda := opts.Lambda
	if lambda == 0 {
		lambda = DefaultLambda
	}
	// A threshold the reduction cannot honor is rejected up front.
	if lambda < 0 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("core: invalid anorexic reduction threshold λ=%v", lambda)
	}
	c := &Compiled{Source: src, Lambda: lambda, planner: alignedbound.NewPlanner(src)}
	if opts.PrimeAlignment {
		c.planner.Prime()
	}
	return c, nil
}

// Reduction returns the compiled anorexic reduction, building it on
// first use (full contour enumeration — see the Compiled doc).
func (c *Compiled) Reduction() *ess.Reduction {
	c.redOnce.Do(func() {
		c.reduction = ess.ReduceSource(c.Source, c.Lambda)
	})
	return c.reduction
}

// Planner returns the compiled alignment planner. Its decision cache
// fills on demand and is shared by every run over this artifact.
func (c *Compiled) Planner() *alignedbound.Planner { return c.planner }

// Guarantee returns the MSO guarantee of the algorithm on this query:
// the a-priori bound the paper proves. For AlignedBound the upper end
// of its range is returned (use alignedbound.GuaranteeRange for both).
func (c *Compiled) Guarantee(alg Algorithm) (float64, error) {
	d := c.Source.Geometry().D
	switch alg {
	case PlanBouquet:
		return bouquet.Guarantee(c.Reduction()), nil
	case SpillBound:
		return spillbound.Guarantee(d), nil
	case AlignedBound:
		_, hi := alignedbound.GuaranteeRange(d)
		return hi, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q", alg)
	}
}

// MSO exhaustively (or strided) evaluates the algorithm's empirical MSO
// and ASO over the grid, one fresh Run per location, all sharing this
// artifact.
func (c *Compiled) MSO(alg Algorithm, opts mso.Options) (*mso.Result, error) {
	return mso.Sweep(c.Source, func(qa int32) (*discovery.Outcome, error) {
		return c.NewRun().Discover(alg, qa)
	}, opts)
}

// NativeWorstCaseMSO evaluates the traditional optimizer's worst-case
// MSO (Eq. 2) on this space.
func (c *Compiled) NativeWorstCaseMSO(opts mso.Options) *mso.Result {
	return mso.NativeWorstCase(c.Source, opts)
}
