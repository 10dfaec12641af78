// Package optimizer implements a System-R style dynamic-programming
// query optimizer over the physical operators of package plan. Given a
// selectivity environment it returns the cost-optimal bushy join tree;
// repeated invocations with injected selectivities enumerate the
// Parametric Optimal Set of Plans (POSP) over the ESS.
//
// Beyond the classic Best search, the optimizer supports spill-class
// enumeration: the cheapest plan per "first spilled epp" class, the
// engine hook AlignedBound needs to find minimum-penalty replacement
// plans (§5.1 of the paper; the authors patched PostgreSQL for this).
//
// Both searches are one enumerator, Runner.search. The naive search it
// replaced lives on in oracle_test.go as the differential reference.
package optimizer

import (
	"sync"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
)

// Plan is an optimized plan with its estimated cost and cardinality.
type Plan struct {
	// Root is the physical plan tree.
	Root *plan.Node
	// Cost is the estimated total cost under the env used to optimize.
	Cost float64
	// Rows is the estimated output cardinality.
	Rows float64
}

// Optimizer searches the bushy plan space of one query. It must not be
// copied after first use (it holds a sync.Pool).
type Optimizer struct {
	q     *query.Query
	model *cost.Model
	edges []edge
	// hasFilter marks relations where an index scan is applicable.
	hasFilter []bool

	// runners pools DP scratch for Best and BestPerSpillClass, so one-off
	// callers (the AlignedBound planner's probe, tests, the CLI) get the
	// arena-backed search without retaining a runner each; the garbage
	// collector reclaims idle scratch.
	runners sync.Pool
}

type edge struct {
	a, b   int // relation indexes
	joinID int
}

// New builds an optimizer for the query. The query must validate.
func New(q *query.Query, model *cost.Model) *Optimizer {
	o := &Optimizer{q: q, model: model}
	for _, j := range q.Joins {
		o.edges = append(o.edges, edge{a: j.LeftRel, b: j.RightRel, joinID: j.ID})
	}
	o.hasFilter = make([]bool, len(q.Relations))
	for i := range q.Relations {
		o.hasFilter[i] = len(q.Relations[i].Filters) > 0
	}
	return o
}

// Query returns the query being optimized.
func (o *Optimizer) Query() *query.Query { return o.q }

// Best returns the cost-optimal plan under env.
func (o *Optimizer) Best(env *cost.Env) *Plan {
	r := o.pooledRunner()
	defer o.runners.Put(r)
	return r.Best(env)
}

// BestPerSpillClass returns, for each remaining epp dimension, the
// cheapest plan whose spill-node identification (against remaining)
// selects that epp. Keys are join IDs. Plans exist only for classes the
// plan space can realize.
func (o *Optimizer) BestPerSpillClass(env *cost.Env, remaining map[int]bool) map[int]*Plan {
	r := o.pooledRunner()
	defer o.runners.Put(r)
	return r.BestPerSpillClass(env, remaining)
}

// pooledRunner takes a runner from the pool with its scan cache
// invalidated: envs are arbitrary here, so the access paths are
// re-chosen on every call.
func (o *Optimizer) pooledRunner() *Runner {
	r, _ := o.runners.Get().(*Runner)
	if r == nil {
		r = o.NewRunner()
	}
	r.scanReady = false
	return r
}

// cand is a DP candidate: a plan for some relation subset together with
// its cost, cardinality, and spill class.
type cand struct {
	node *plan.Node
	cost float64
	rows float64
	// spillJoin is the join ID the plan would spill on (first unlearned
	// epp in pipeline order), or -1.
	spillJoin int
	sig       string // lazily computed for deterministic tie-breaks
}

// spillClass composes the "first spilled epp" of a joined plan from its
// children, following pipeline execution order (see plan.Pipelines):
// HashJoin and NLJoin run the inner side's pipelines first, MergeJoin
// and IndexNLJoin the outer side's. own is the join's own remaining epp
// (or -1), which spills only when neither child does.
func spillClass(m plan.JoinMethod, l, r *cand, own int) int {
	var first, second int
	switch m {
	case plan.HashJoin, plan.NLJoin:
		first, second = r.spillJoin, l.spillJoin
	case plan.MergeJoin:
		first, second = l.spillJoin, r.spillJoin
	case plan.IndexNLJoin:
		first, second = l.spillJoin, -1
	default:
		panic("optimizer: unknown join method")
	}
	if first >= 0 {
		return first
	}
	if second >= 0 {
		return second
	}
	return own
}

// better orders candidates by cost, breaking ties on plan signature so
// that POSP enumeration is deterministic.
func better(a, b *cand) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.sig == "" {
		a.sig = a.node.Signature()
	}
	if b.sig == "" {
		b.sig = b.node.Signature()
	}
	return a.sig < b.sig
}
