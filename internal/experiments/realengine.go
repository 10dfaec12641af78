package experiments

import (
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/exec"
)

// NewRealEngine forwards to discovery.NewRealEngine, where the real
// engine lives beside the simulated ones. It remains only because the
// benchmark harness calls it by this name.
func NewRealEngine(src ess.ContourSource, ex *exec.Executor) *discovery.RealEngine {
	return discovery.NewRealEngine(src, ex)
}
