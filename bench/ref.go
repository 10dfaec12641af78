package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ess"
	"repro/internal/workload"
)

// paperStrategies are the three algorithms with an a-priori MSO bound,
// under the aliases /discover accepts in its algorithm field.
var paperStrategies = []struct{ alias, name string }{
	{"pb", string(core.PlanBouquet)},
	{"sb", string(core.SpillBound)},
	{"ab", string(core.AlignedBound)},
}

// heuristicStrategies have no bound; they go in the strategy field.
var heuristicStrategies = []string{"parqo", "robustmap", "adaptiveswitch"}

// reference is the harness's own eager artifact for one spec, built
// with the configuration the server under test uses. It supplies the
// guarantee every eager op is checked against and the grid size the
// request generators draw qa from; the traced pass replays request
// stages on it.
type reference struct {
	spec     workload.Spec
	space    *ess.Space
	compiled *core.Compiled
	bounds   map[string]float64
}

// buildReference builds the artifact at the servers' default scale and
// the spec's default resolution.
func buildReference(name string) (*reference, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	space, err := spec.SpaceWith(1.0, ess.Config{})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	c, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", name, err)
	}
	return &reference{spec: spec, space: space, compiled: c, bounds: map[string]float64{}}, nil
}

// buildReferences builds the harness's own artifact for every named
// spec.
func buildReferences(names []string) (map[string]*reference, error) {
	refs := make(map[string]*reference, len(names))
	for _, name := range names {
		ref, err := buildReference(name)
		if err != nil {
			return nil, err
		}
		refs[name] = ref
	}
	return refs, nil
}

// bound returns the strategy's a-priori MSO guarantee on this artifact,
// or 0 when it has none.
func (r *reference) bound(strategy string) float64 {
	if b, ok := r.bounds[strategy]; ok {
		return b
	}
	b, ok := r.compiled.StrategyGuarantee(strategy)
	if !ok {
		b = 0
	}
	r.bounds[strategy] = b
	return b
}

// gridPoints returns the number of grid locations of a spec at its
// default resolution, without building anything.
func gridPoints(spec workload.Spec) int {
	n := 1
	for d := 0; d < spec.D; d++ {
		n *= spec.Res
	}
	return n
}

// discoverBody renders one /discover request. Paper algorithms go in
// the algorithm field under their alias, heuristics in strategy.
func discoverBody(workloadName, strategy string, qa int) []byte {
	for _, p := range paperStrategies {
		if p.name == strategy {
			return fmt.Appendf(nil, `{"workload":"%s","algorithm":"%s","qa":%d}`, workloadName, p.alias, qa)
		}
	}
	return fmt.Appendf(nil, `{"workload":"%s","strategy":"%s","qa":%d}`, workloadName, strategy, qa)
}
