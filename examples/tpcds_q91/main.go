// TPC-DS Q91 walkthrough: the paper's running example (Fig. 7 and
// Table 3). Runs 2D-SpillBound at the paper's qa = (0.04, 0.1), prints
// the Manhattan discovery trace, then compares all three robust
// algorithms and the native optimizer at the same location.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/mso"
	"repro/internal/workload"
)

func main() {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		log.Fatal(err)
	}
	space, err := spec.Space(1.0, 20)
	if err != nil {
		log.Fatal(err)
	}

	xi := space.Grid.NearestIndex(0.04)
	yi := space.Grid.NearestIndex(0.1)
	qa := int32(space.Grid.Linear([]int{xi, yi}))
	fmt.Printf("2D_Q91: qa = (%.3g, %.3g), optimal cost %.4g\n\n",
		space.Grid.Vals[xi], space.Grid.Vals[yi], space.PointCost[qa])

	sess, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The Fig. 7 trace, with the running location after every step.
	out, err := sess.NewRun().Discover(core.SpillBound, qa)
	if err != nil {
		log.Fatal(err)
	}
	qrun := []string{"smin", "smin"}
	fmt.Println("SpillBound trace (Fig. 7):")
	for _, st := range out.Steps {
		if st.Phase == discovery.PhaseSpill && st.LearnedIdx >= 0 {
			qrun[st.Dim] = fmt.Sprintf("%.3g", space.Grid.Vals[st.LearnedIdx])
		}
		fmt.Printf("  IC%-2d plan P%-3d %-14s q_run=(%s, %s)\n",
			st.Contour, st.PlanID, string(st.Phase), qrun[0], qrun[1])
	}
	fmt.Printf("  → total %.4g, sub-optimality %.2f\n\n", out.TotalCost, out.SubOpt(space.PointCost[qa]))

	// All approaches at this location.
	fmt.Println("approach comparison at qa:")
	for _, alg := range []core.Algorithm{core.PlanBouquet, core.SpillBound, core.AlignedBound} {
		o, err := sess.NewRun().Discover(alg, qa)
		if err != nil {
			log.Fatal(err)
		}
		g, _ := sess.Guarantee(alg)
		fmt.Printf("  %-12s sub-opt %5.2f (guarantee %5.1f, %d executions)\n",
			alg, o.SubOpt(space.PointCost[qa]), g, len(o.Steps))
	}
	native := mso.NativeAt(space, int32(space.Grid.Origin()), mso.Options{})
	for i, p := range native.Points {
		if p == qa {
			fmt.Printf("  %-12s sub-opt %5.2f (no guarantee)\n", "native@origin", native.SubOpts[i])
		}
	}
}
