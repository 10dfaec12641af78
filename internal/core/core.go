// Package core is the public façade of the robust query processing
// library: it wires the ESS search space to the three discovery
// algorithms — PlanBouquet (baseline), SpillBound, and AlignedBound —
// and to the MSO evaluation harness.
//
// The API splits compile time from run time: Compile produces an
// immutable *Compiled artifact (anorexic reduction, contours, alignment
// planner) that any number of concurrent *Run values share, each Run
// holding only per-discovery mutable state. The artifact is compiled
// over any ess.ContourSource — the eager *ess.Space or the demand-driven
// *ess.LazySpace — and reads the cost surface only through it
// (Compiled.Source).
//
// Typical use:
//
//	spec, _ := workload.ByName("4D_Q91")
//	src, _ := spec.Source("eager", 1.0, ess.Config{})
//	compiled, _ := core.CompileSource(src, core.CompileOptions{})
//	out, _ := compiled.NewRun().Discover(core.SpillBound, qa)
//	fmt.Println(out.SubOpt(src.CostAt(qa)))
package core

import "repro/internal/core/discovery"

// Outcome is the result of one discovery run (see discovery.Outcome for
// the trace, cost ledger, and degradation record).
type Outcome = discovery.Outcome

// Algorithm selects a query processing strategy.
type Algorithm string

// The supported strategies.
const (
	// PlanBouquet is the baseline of Dutt & Haritsa with anorexic
	// reduction at λ = 0.2 and MSO ≤ 4(1+λ)ρ_red.
	PlanBouquet Algorithm = "planbouquet"
	// SpillBound is the paper's main algorithm, MSO ≤ D²+3D.
	SpillBound Algorithm = "spillbound"
	// AlignedBound exploits contour alignment, MSO ∈ [2D+2, D²+3D].
	AlignedBound Algorithm = "alignedbound"
)

// DefaultLambda is the anorexic-reduction threshold used throughout the
// paper's experiments.
const DefaultLambda = 0.2
