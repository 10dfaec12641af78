package ess

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Contour is one iso-cost contour: the discrete skyline of the
// hypograph {q : Cost(Pq,q) ≤ Cost} — every location on it has optimal
// cost within budget while all of its (unlearned-dimension) successors
// exceed it.
type Contour struct {
	// Index is the 1-based contour number (IC_{Index}).
	Index int
	// Cost is CC_i, the execution budget on this contour.
	Cost float64
	// Points are the linear grid indexes on the contour, ascending.
	Points []int32
}

// ladder reads Cmin and Cmax off the settled origin and terminus and
// returns the budget sequence CC_1..CC_m: Cmin, then geometric steps,
// capped at Cmax (§2.5). It refuses a degenerate surface, and a ratio
// so near 1 that the ladder would pass 65 536 contours, each of which
// every memoized slice holds a slot for; a snapshot read from outside
// can carry either.
func (s *Space) ladder() ([]float64, error) {
	s.Cmin, s.Cmax = s.PointCost[s.Grid.Origin()], s.PointCost[s.Grid.Terminus()]
	if s.Cmin <= 0 || s.Cmax < s.Cmin {
		return nil, fmt.Errorf("ess: degenerate cost surface (Cmin=%v, Cmax=%v)", s.Cmin, s.Cmax)
	}
	costs := []float64{s.Cmin}
	const slack = 1e-9
	for c := s.Cmin * s.CostRatio; c < s.Cmax*(1-slack); c *= s.CostRatio {
		if len(costs) == 1<<16 {
			return nil, fmt.Errorf("ess: cost ratio %v gives more than %d contours", s.CostRatio, 1<<16)
		}
		costs = append(costs, c)
	}
	if s.Cmax > s.Cmin*(1+slack) {
		costs = append(costs, s.Cmax)
	}
	return costs, nil
}

// contourMemo is the one contour enumerator both providers share: it
// walks one cost surface (the eager PointCost array, or one refinement
// epoch of a lazy space) and memoizes every (slice, contour) it builds.
// Entries are pure functions of that surface, so a racing double build
// is benign; the first one stored wins.
type contourMemo struct {
	g     *Grid
	costs []float64 // CC_1..CC_m
	cost  func(pt int) float64
	// full holds the full-grid contours, where every discovery starts,
	// and slices maps a pinned slice's key to its contours, one slot per
	// contour index. Keying by slice rather than by (slice, contour)
	// keeps the map m times smaller, and the collector's work with it.
	full   []atomic.Pointer[Contour]
	slices sync.Map
}

func newContourMemo(g *Grid, costs []float64, cost func(pt int) float64) *contourMemo {
	return &contourMemo{g: g, costs: costs, cost: cost, full: make([]atomic.Pointer[Contour], len(costs))}
}

// at returns contour ci (0-based) of the slice where the learned
// dimensions (learned[d] ≥ 0) are pinned; nil learned selects the full
// grid. hit reports whether the contour was already memoized, and
// stored whether this call built it and stored it. A call that misses
// and loses the race to store returns the winner's contour, with
// neither hit nor stored set, so a count of stores is one per memoized
// contour however the calls interleave.
//
// A slice's key is one exact word: the pinned-dimension mask in bits
// 0–15 (D ≤ 16, as SpillDim's uint16 mask already requires) and the
// linear offset of the pinned coordinates above them (grid points fit
// in int32). It is 0 exactly for the full grid, nil and all-free
// vectors alike.
func (m *contourMemo) at(learned []int, ci int) (ct *Contour, hit, stored bool) {
	var mask, off uint64
	for d, v := range learned {
		if v >= 0 {
			mask |= 1 << uint(d)
			off += uint64(v * m.g.strides[d])
		}
	}
	slots := m.full
	if key := mask | off<<16; key != 0 {
		v, ok := m.slices.Load(key)
		if !ok {
			v, _ = m.slices.LoadOrStore(key, make([]atomic.Pointer[Contour], len(m.costs)))
		}
		slots = v.([]atomic.Pointer[Contour])
	}
	if ct := slots[ci].Load(); ct != nil {
		return ct, true, false
	}
	stored = slots[ci].CompareAndSwap(nil, m.build(learned, ci))
	return slots[ci].Load(), false, stored
}

// build enumerates the points of contour ci on the slice. A point is on
// the contour when its cost is within budget while every free-dimension
// successor exceeds it. The cost surface is monotone nondecreasing along
// every dimension, so each innermost grid line holds at most one
// contour point — the largest in-budget index — found by binary search,
// and a whole subtree is pruned as soon as its minimum corner exceeds
// the budget. On a monotone surface this is exactly the point-by-point
// definition, in ascending point order; membership is still verified
// directly against the free-dimension successors, which keeps the
// contour valid under the bounded monotonicity slips a recost-settled
// lazy surface can have.
func (m *contourMemo) build(learned []int, ci int) *Contour {
	// The 1e-9 relative slack absorbs float drift in the ladder.
	g, cost, b := m.g, m.cost, m.costs[ci]*(1+1e-9)
	ct := &Contour{Index: ci + 1, Cost: m.costs[ci]}

	var free []int
	base := 0
	for d := 0; d < g.D; d++ {
		if learned != nil && learned[d] >= 0 {
			base += learned[d] * g.strides[d]
		} else {
			free = append(free, d)
		}
	}

	if len(free) == 0 {
		// Fully pinned slice: the single point sits on every contour
		// from its cost upward (no free successors to exceed).
		if cost(base) <= b {
			ct.Points = append(ct.Points, int32(base))
		}
		return ct
	}

	last := free[len(free)-1]
	// prevLo carries the boundary index of the previously searched line:
	// the contour is a continuous monotone surface, so adjacent lines
	// cross the budget at nearly the same index and a gallop from the
	// last boundary settles ~2 points per line where a cold binary
	// search settles O(log res). Purely an access-order optimization —
	// the boundary found is the same either way.
	prevLo := -1
	var rec func(k, lin int) bool
	rec = func(k, lin int) bool {
		// lin fixes free dims [0,k) and holds free dims [k,·) at index
		// 0 — the subtree's monotone minimum. Above budget ⇒ prune, and
		// the caller stops advancing its own index (costs only rise).
		if cost(lin) > b {
			return false
		}
		if k == len(free)-1 {
			var lo int
			if prevLo < 0 {
				hi := g.Res - 1
				for lo < hi {
					mid := (lo + hi + 1) / 2
					if cost(lin+mid*g.strides[last]) <= b {
						lo = mid
					} else {
						hi = mid - 1
					}
				}
			} else {
				lo = prevLo
				if cost(lin+lo*g.strides[last]) <= b {
					for lo < g.Res-1 && cost(lin+(lo+1)*g.strides[last]) <= b {
						lo++
					}
				} else {
					for lo--; cost(lin+lo*g.strides[last]) > b; lo-- {
					}
				}
			}
			prevLo = lo
			pt := lin + lo*g.strides[last]
			on := true
			for _, d := range free {
				if nxt := g.Step(pt, d); nxt >= 0 && cost(nxt) <= b {
					on = false
					break
				}
			}
			if on {
				ct.Points = append(ct.Points, int32(pt))
			}
			return true
		}
		d := free[k]
		for i := 0; i < g.Res; i++ {
			if !rec(k+1, lin+i*g.strides[d]) {
				break
			}
		}
		return true
	}
	rec(0, base)
	return ct
}
