// Alignment study: profiles contour alignment (Table 2) for a benchmark
// query, then shows how AlignedBound converts alignment into fewer
// budgeted executions than SpillBound on the locations where it matters.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/core/alignedbound"
	"repro/internal/workload"
)

func main() {
	spec, err := workload.ByName("3D_Q96")
	if err != nil {
		log.Fatal(err)
	}
	space, err := spec.Space(1.0, 8)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Per-contour alignment profile (Table 2's raw data).
	prof := sess.Planner().Profile()
	fmt.Printf("%s: contour alignment profile\n", spec.Name)
	for _, ca := range prof {
		status := fmt.Sprintf("induced at Δ=%.2f", ca.MinPenalty)
		if ca.Native {
			status = "natively aligned"
		} else if math.IsInf(ca.MinPenalty, 1) {
			status = "not alignable from pool"
		}
		fmt.Printf("  IC%-2d %s\n", ca.Contour, status)
	}
	for _, thr := range []float64{1, 1.2, 1.5, 2.0} {
		fmt.Printf("  aligned within Δ≤%.1f: %.0f%%\n", thr, 100*alignedbound.AlignedFraction(prof, thr))
	}

	// Execution counts along a diagonal of locations. Aligned contours
	// let AB cover several epps with one leader execution; induced
	// alignment, on the other hand, can retry with penalty-inflated
	// budgets, so AB is not uniformly cheaper than SB per discovery.
	fmt.Println("\nexecutions per discovery (SB vs AB) along the grid diagonal:")
	maxPenalty := 0.0
	for k := 0; k < space.Grid.Res; k += 2 {
		qa := int32(space.Grid.Linear([]int{k, k, k}))
		sb, err := sess.NewRun().Discover(core.SpillBound, qa)
		if err != nil {
			log.Fatal(err)
		}
		ab, err := sess.NewRun().Discover(core.AlignedBound, qa)
		if err != nil {
			log.Fatal(err)
		}
		maxPenalty = math.Max(maxPenalty, ab.AlignPenalty)
		opt := space.PointCost[qa]
		fmt.Printf("  sel=%.1e  SB: %2d execs (sub-opt %5.2f)   AB: %2d execs (sub-opt %5.2f)\n",
			space.Grid.Vals[k], len(sb.Steps), sb.SubOpt(opt), len(ab.Steps), ab.SubOpt(opt))
	}
	fmt.Printf("\nmax partition penalty π* observed: %.2f (Table 4's metric)\n", maxPenalty)
}
