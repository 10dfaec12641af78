package optimizer

import (
	"math/bits"

	"repro/internal/cost"
	"repro/internal/plan"
)

// This file is the differential reference for Runner.search: the naive
// DP the package shipped before the runner took over both searches. It
// heap-allocates every candidate, re-costs whole subtrees with
// Model.Cost, and keeps per-class candidate lists in insertion order —
// sharing nothing with the runner beyond cand and better. The exported
// wrappers exist only in test builds, for the external test package
// (which can import workload without a cycle).

// OracleBest is the naive search's cost-optimal plan under env.
func (o *Optimizer) OracleBest(env *cost.Env) *Plan {
	var best *cand
	for _, c := range o.oracleSearch(env, nil) {
		if best == nil || better(c, best) {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	return &Plan{Root: best.node, Cost: best.cost, Rows: best.rows}
}

// OracleBestPerSpillClass is the naive search's cheapest plan per spill
// class against remaining, keyed by join ID.
func (o *Optimizer) OracleBestPerSpillClass(env *cost.Env, remaining map[int]bool) map[int]*Plan {
	out := make(map[int]*Plan)
	for _, c := range o.oracleSearch(env, remaining) {
		if c == nil || c.spillJoin < 0 {
			continue
		}
		if prev := out[c.spillJoin]; prev == nil || c.cost < prev.Cost {
			out[c.spillJoin] = &Plan{Root: c.node, Cost: c.cost, Rows: c.rows}
		}
	}
	return out
}

// oracleSearch runs the DP. When classes is nil only the single cheapest
// candidate per subset is kept; otherwise the cheapest per spill class.
func (o *Optimizer) oracleSearch(env *cost.Env, classes map[int]bool) []*cand {
	n := len(o.q.Relations)
	full := uint32(1)<<uint(n) - 1
	// table[mask] is a small slice of candidates for the subset.
	table := make([][]*cand, full+1)

	for r := 0; r < n; r++ {
		table[1<<uint(r)] = o.scanCands(r, env)
	}

	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		var results []*cand
		// Enumerate proper submask splits; both orientations appear.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if sub > other {
				continue // each unordered split once; orientations handled below
			}
			ls, rs := table[sub], table[other]
			if ls == nil || rs == nil {
				continue
			}
			joinIDs := o.crossingJoins(sub, other)
			if len(joinIDs) == 0 {
				continue // avoid cross products
			}
			for _, l := range ls {
				for _, r := range rs {
					results = o.emitJoins(results, l, r, joinIDs, env, classes)
					results = o.emitJoins(results, r, l, joinIDs, env, classes)
				}
			}
		}
		table[mask] = results
	}
	return table[full]
}

// scanCands returns the access-path candidates for one relation.
func (o *Optimizer) scanCands(rel int, env *cost.Env) []*cand {
	mk := func(m plan.ScanMethod) *cand {
		node := plan.NewScan(rel, m)
		res := o.model.Cost(node, env)
		return &cand{node: node, cost: res.Cost, rows: res.Rows, spillJoin: -1}
	}
	seq := mk(plan.SeqScan)
	if !o.hasFilter[rel] {
		return []*cand{seq}
	}
	idx := mk(plan.IndexScan)
	if idx.cost < seq.cost {
		return []*cand{idx}
	}
	return []*cand{seq}
}

// crossingJoins returns join IDs with one endpoint in each subset, in
// edge order.
func (o *Optimizer) crossingJoins(a, b uint32) []int {
	var ids []int
	for _, e := range o.edges {
		am, bm := uint32(1)<<uint(e.a), uint32(1)<<uint(e.b)
		if (am&a != 0 && bm&b != 0) || (am&b != 0 && bm&a != 0) {
			ids = append(ids, e.joinID)
		}
	}
	return ids
}

// emitJoins generates all physical joins of (l outer, r inner) and folds
// them into the candidate set with per-class pruning.
func (o *Optimizer) emitJoins(results []*cand, l, r *cand, joinIDs []int, env *cost.Env, classes map[int]bool) []*cand {
	methods := [...]plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.IndexNLJoin, plan.NLJoin}
	for _, m := range methods {
		if m == plan.IndexNLJoin && !r.node.IsScan() {
			continue
		}
		node := plan.NewJoin(m, joinIDs, l.node, r.node)
		res := o.model.Cost(node, env)
		c := &cand{
			node:      node,
			cost:      res.Cost,
			rows:      res.Rows,
			spillJoin: oracleSpillClass(m, l, r, joinIDs, classes),
		}
		results = insertCand(results, c, classes != nil)
	}
	return results
}

// oracleSpillClass composes the "first spilled epp" of a joined plan
// from its children, following pipeline execution order (see
// plan.Pipelines): HashJoin and NLJoin run the inner side's pipelines
// first, MergeJoin and IndexNLJoin the outer side's.
func oracleSpillClass(m plan.JoinMethod, l, r *cand, joinIDs []int, classes map[int]bool) int {
	if classes == nil {
		return -1
	}
	own := -1
	for _, id := range joinIDs {
		if classes[id] {
			own = id
			break
		}
	}
	pick := func(first, second int) int {
		if first >= 0 {
			return first
		}
		if second >= 0 {
			return second
		}
		return own
	}
	switch m {
	case plan.HashJoin, plan.NLJoin:
		return pick(r.spillJoin, l.spillJoin)
	case plan.MergeJoin:
		return pick(l.spillJoin, r.spillJoin)
	case plan.IndexNLJoin:
		return pick(l.spillJoin, -1)
	default:
		panic("optimizer: unknown join method")
	}
}

// insertCand keeps the cheapest candidate overall and, if perClass, the
// cheapest per spill class.
func insertCand(results []*cand, c *cand, perClass bool) []*cand {
	if !perClass {
		if len(results) == 0 {
			return append(results, c)
		}
		if better(c, results[0]) {
			results[0] = c
		}
		return results
	}
	for i, prev := range results {
		if prev.spillJoin == c.spillJoin {
			if better(c, prev) {
				results[i] = c
			}
			return results
		}
	}
	return append(results, c)
}
