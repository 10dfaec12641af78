// JOB benchmark (§6.5): runs JOB query 1a over the IMDB-like schema and
// contrasts the native optimizer's worst-case MSO with SpillBound and
// AlignedBound — the experiment where estimation-based optimization
// collapses and discovery-based processing stays within single digits
// of optimal.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/workload"
)

func main() {
	spec := workload.JOBQ1a()
	fmt.Printf("%s over the IMDB-like schema (D=%d)\n%s\n\n", spec.Name, spec.D, spec.SQL)

	space, err := spec.Space(1.0, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ESS: %d locations, %d POSP plans, %d contours\n\n",
		space.Grid.NumPoints(), space.NumPlans(), space.NumContours())

	sess, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	native := sess.NativeWorstCaseMSO(mso.Options{})
	sb, err := sess.MSO(core.SpillBound, mso.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ab, err := sess.MSO(core.AlignedBound, mso.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %10s %8s\n", "approach", "MSOe", "ASO")
	fmt.Printf("%-28s %10.1f %8.1f\n", "native optimizer (worst qe)", native.MSO, native.ASO)
	fmt.Printf("%-28s %10.1f %8.2f\n", "SpillBound", sb.MSO, sb.ASO)
	fmt.Printf("%-28s %10.1f %8.2f\n", "AlignedBound", ab.MSO, ab.ASO)

	fmt.Printf("\nnative/SpillBound worst-case ratio: %.0fx\n", native.MSO/sb.MSO)
}
