package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
)

// BenchmarkRealDiscovery times whole SpillBound and AlignedBound
// discoveries over real executions of 4D_Q91 at scale 0.2 on one warm
// executor: the budgeted full, spilled and killed runs the query_real
// benchmark workload is made of, at a size a smoke run can afford.
func BenchmarkRealDiscovery(b *testing.B) {
	store, setups := buildRealSetups(b, 0.2, "4D_Q91")
	s := setups[0]
	for _, alg := range []core.Algorithm{core.SpillBound, core.AlignedBound} {
		b.Run(string(alg), func(b *testing.B) {
			ex := exec.New(s.q, store, cost.DefaultParams())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.discover(alg, ex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
