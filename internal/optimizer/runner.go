package optimizer

import (
	"math/bits"

	"repro/internal/cost"
	"repro/internal/plan"
)

// Runner owns reusable DP state for repeated searches against
// environments that differ only in join selectivities — the POSP sweep
// pattern, where SetEPPSel repositions one shared env across the grid.
// It cuts the two hot costs of a naive search: per-candidate subtree
// re-costing (replaced by cost.Model.JoinCost composition over the DP
// table) and per-call heap allocation (DP nodes, specs, and candidates
// come from arenas recycled between calls; only winning plans are
// deep-copied out). Results are bit-identical to the naive search kept
// in oracle_test.go.
//
// A Runner is not safe for concurrent use; create one per goroutine.
// The scan-candidate cache assumes the env's RawRows, FilteredRows, and
// IndexSel stay fixed across calls (scan costs do not depend on
// JoinSel), which SetEPPSel preserves.
type Runner struct {
	o *Optimizer

	// table holds stride candidate slots per relation subset: slot 0 for
	// the cheapest plan that spills on no remaining epp, slot 1+i for the
	// cheapest that spills on classes[i]. Best runs with stride 1.
	table   []*cand
	stride  int
	classes []int // remaining join IDs, ascending
	slot    []int // join ID → its class slot, 0 when not remaining

	// scanReady guards the per-relation scan-candidate cache.
	scanReady  bool
	scanMethod []plan.ScanMethod
	scanRes    []cost.Result

	nodes arena[plan.Node]
	scans arena[plan.ScanSpec]
	joins arena[plan.JoinSpec]
	cands arena[cand]
	ints  intSlab
}

// NewRunner returns a fresh runner over the optimizer's query and model.
func (o *Optimizer) NewRunner() *Runner { return &Runner{o: o} }

// Best returns the cost-optimal plan under env. The returned plan
// shares no memory with the runner.
func (r *Runner) Best(env *cost.Env) *Plan {
	b := r.search(env, nil)[0]
	if b == nil {
		return nil
	}
	return &Plan{Root: b.node.Clone(), Cost: b.cost, Rows: b.rows}
}

// BestPerSpillClass returns, for each remaining epp (keyed by join ID),
// the cheapest plan whose first spilled epp is that one. The returned
// plans share no memory with the runner.
func (r *Runner) BestPerSpillClass(env *cost.Env, remaining map[int]bool) map[int]*Plan {
	winners := r.search(env, remaining)
	out := make(map[int]*Plan, len(r.classes))
	for i, id := range r.classes {
		if c := winners[1+i]; c != nil {
			out[id] = &Plan{Root: c.node.Clone(), Cost: c.cost, Rows: c.rows}
		}
	}
	return out
}

// search runs the DP and returns the full relation set's slots (valid
// until the next search): the cheapest plan per spill class against
// remaining, or with remaining empty the single cheapest plan.
func (r *Runner) search(env *cost.Env, remaining map[int]bool) []*cand {
	o := r.o
	n := len(o.q.Relations)
	full := uint32(1)<<uint(n) - 1

	r.slot = append(r.slot[:0], make([]int, len(o.q.Joins))...)
	r.classes = r.classes[:0]
	for id := range r.slot {
		if remaining[id] {
			r.classes = append(r.classes, id)
			r.slot[id] = len(r.classes)
		}
	}
	r.stride = 1 + len(r.classes)
	if need := int(full+1) * r.stride; cap(r.table) < need {
		r.table = make([]*cand, need)
	} else {
		r.table = r.table[:need]
		clear(r.table)
	}
	r.nodes.reset()
	r.scans.reset()
	r.joins.reset()
	r.cands.reset()
	r.ints.reset()
	if !r.scanReady {
		r.primeScans(env)
	}

	for rel := 0; rel < n; rel++ {
		res := r.scanRes[rel]
		c := r.cands.alloc()
		c.node, c.cost, c.rows, c.spillJoin = r.newScan(rel, r.scanMethod[rel]), res.Cost, res.Rows, -1
		r.slots(1 << uint(rel))[0] = c
	}

	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		out := r.slots(mask)
		// Enumerate proper submask splits; both orientations appear.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if sub > other {
				continue // each unordered split once; orientations handled below
			}
			ls, rs := r.slots(sub), r.slots(other)
			if empty(ls) || empty(rs) {
				continue
			}
			ids := r.crossingJoins(sub, other)
			if len(ids) == 0 {
				continue // avoid cross products
			}
			// own is the epp this join would spill on itself: the first
			// crossing predicate that is still remaining.
			own := -1
			for _, id := range ids {
				if r.slot[id] != 0 {
					own = id
					break
				}
			}
			for _, l := range ls {
				if l == nil {
					continue
				}
				for _, rr := range rs {
					if rr == nil {
						continue
					}
					r.emit(out, l, rr, ids, own, env)
					r.emit(out, rr, l, ids, own, env)
				}
			}
		}
	}
	return r.slots(full)
}

// slots returns the candidate slots of one relation subset.
func (r *Runner) slots(mask uint32) []*cand {
	i := int(mask) * r.stride
	return r.table[i : i+r.stride]
}

func empty(slots []*cand) bool {
	for _, c := range slots {
		if c != nil {
			return false
		}
	}
	return true
}

// primeScans fills the per-relation access-path cache: an index scan
// where the relation has a filter and the index is cheaper, else a
// sequential scan.
func (r *Runner) primeScans(env *cost.Env) {
	o := r.o
	n := len(o.q.Relations)
	r.scanMethod = append(r.scanMethod[:0], make([]plan.ScanMethod, n)...)
	r.scanRes = append(r.scanRes[:0], make([]cost.Result, n)...)
	for rel := 0; rel < n; rel++ {
		method, res := plan.SeqScan, o.model.Cost(r.newScan(rel, plan.SeqScan), env)
		if o.hasFilter[rel] {
			if idx := o.model.Cost(r.newScan(rel, plan.IndexScan), env); idx.Cost < res.Cost {
				method, res = plan.IndexScan, idx
			}
		}
		r.scanMethod[rel] = method
		r.scanRes[rel] = res
	}
	r.scanReady = true
}

var joinMethods = [...]plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.IndexNLJoin, plan.NLJoin}

// emit folds the physical joins of (l outer, rr inner) into out, the
// slots of the joined subset. Each candidate is built in the arenas'
// next free slots and claims them only if it wins its class, so the
// arenas grow with the number of improvements, not of candidates.
func (r *Runner) emit(out []*cand, l, rr *cand, ids []int, own int, env *cost.Env) {
	for _, m := range joinMethods {
		if m == plan.IndexNLJoin && !rr.node.IsScan() {
			continue
		}
		spec := r.joins.next()
		spec.Method, spec.JoinIDs = m, ids
		node := r.nodes.next()
		node.Join = spec
		node.Left, node.Right = l.node, rr.node
		node.Rels = l.node.Rels | rr.node.Rels
		res := r.o.model.JoinCost(node,
			cost.Result{Rows: l.rows, Cost: l.cost},
			cost.Result{Rows: rr.rows, Cost: rr.cost}, env)
		c := r.cands.next()
		c.node, c.cost, c.rows, c.spillJoin = node, res.Cost, res.Rows, spillClass(m, l, rr, own)
		best := &out[0]
		if c.spillJoin >= 0 {
			best = &out[r.slot[c.spillJoin]]
		}
		if *best == nil || better(c, *best) {
			r.joins.keep()
			r.nodes.keep()
			r.cands.keep()
			*best = c
		}
	}
}

func (r *Runner) newScan(rel int, m plan.ScanMethod) *plan.Node {
	spec := r.scans.alloc()
	spec.Rel, spec.Method = rel, m
	n := r.nodes.alloc()
	n.Scan = spec
	n.Rels = 1 << uint(rel)
	return n
}

// crossingJoins returns join IDs with one endpoint in each subset, in
// edge order, allocated from the int slab.
func (r *Runner) crossingJoins(a, b uint32) []int {
	o := r.o
	cnt := 0
	for _, e := range o.edges {
		am, bm := uint32(1)<<uint(e.a), uint32(1)<<uint(e.b)
		if (am&a != 0 && bm&b != 0) || (am&b != 0 && bm&a != 0) {
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	ids := r.ints.alloc(cnt)
	i := 0
	for _, e := range o.edges {
		am, bm := uint32(1)<<uint(e.a), uint32(1)<<uint(e.b)
		if (am&a != 0 && bm&b != 0) || (am&b != 0 && bm&a != 0) {
			ids[i] = e.joinID
			i++
		}
	}
	return ids
}

// arenaChunk is the per-chunk element count of the DP arenas. Chunks are
// never moved or freed, so pointers into them stay valid until reset.
const arenaChunk = 512

// arena is a chunked bump allocator whose allocations live until reset.
type arena[T any] struct {
	chunks  [][]T
	ci, off int
}

// next returns the next free slot, zeroed, without claiming it: until
// keep is called the following next returns the same slot.
func (a *arena[T]) next() *T {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	p := &a.chunks[a.ci][a.off]
	var zero T
	*p = zero
	return p
}

// keep claims the slot the last next returned.
func (a *arena[T]) keep() {
	a.off++
	if a.off == arenaChunk {
		a.ci++
		a.off = 0
	}
}

func (a *arena[T]) alloc() *T {
	p := a.next()
	a.keep()
	return p
}

func (a *arena[T]) reset() { a.ci, a.off = 0, 0 }

// intSlab bump-allocates small []int values (join ID lists) out of
// fixed-size chunks.
type intSlab struct {
	chunks  [][]int
	ci, off int
}

func (s *intSlab) alloc(n int) []int {
	if n > arenaChunk {
		return make([]int, n) // oversized: fall back to the heap
	}
	if s.ci < len(s.chunks) && s.off+n > arenaChunk {
		s.ci++
		s.off = 0
	}
	if s.ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]int, arenaChunk))
	}
	out := s.chunks[s.ci][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

func (s *intSlab) reset() { s.ci, s.off = 0, 0 }
