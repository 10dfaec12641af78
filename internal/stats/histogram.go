package stats

import (
	"sort"

	"repro/internal/expr"
)

// Histogram is an equi-depth histogram over int64 values. Buckets hold
// roughly equal row counts; each records its value bounds, row count,
// and distinct count, supporting range and equality estimation.
type Histogram struct {
	// Buckets in ascending value order.
	Buckets []Bucket
	// Total is the number of rows summarized.
	Total float64
}

// Bucket is one histogram bucket covering values in [Lo, Hi].
type Bucket struct {
	Lo, Hi int64
	// Count is the number of rows in the bucket.
	Count float64
	// NDV is the number of distinct values in the bucket.
	NDV float64
}

// runHistogram constructs an equi-depth histogram from a column's
// runs: keys ascending, with offs[i+1]−offs[i] rows holding keys[i].
// A bucket closes at the first run at which it holds at least n/buckets
// rows, so equal values never straddle a bucket boundary.
func runHistogram(keys []int64, offs []int32, buckets int) *Histogram {
	if len(keys) == 0 {
		return &Histogram{}
	}
	n := int(offs[len(keys)])
	buckets = min(buckets, n)
	h := &Histogram{Total: float64(n)}
	target := max(n/buckets, 1)
	first := 0 // the open bucket's first run
	for k := range keys {
		if count := int(offs[k+1] - offs[first]); count >= target || k == len(keys)-1 {
			h.Buckets = append(h.Buckets, Bucket{Lo: keys[first], Hi: keys[k], Count: float64(count), NDV: float64(k - first + 1)})
			first = k + 1
		}
	}
	return h
}

// Sel estimates the selectivity of (col op v); colNDV is the column-wide
// distinct count used for NE.
func (h *Histogram) Sel(op expr.CmpOp, v int64, colNDV float64) float64 {
	if h.Total == 0 {
		return 0
	}
	switch op {
	case expr.EQ:
		return h.eq(v)
	case expr.NE:
		_ = colNDV
		return 1 - h.eq(v)
	case expr.LT:
		return h.below(v, false)
	case expr.LE:
		return h.below(v, true)
	case expr.GT:
		return 1 - h.below(v, true)
	case expr.GE:
		return 1 - h.below(v, false)
	default:
		return 1
	}
}

// eq estimates the fraction of rows equal to v, assuming uniformity
// within the containing bucket.
func (h *Histogram) eq(v int64) float64 {
	i := h.find(v)
	if i < 0 {
		return 0
	}
	b := h.Buckets[i]
	return b.Count / b.NDV / h.Total
}

// below estimates the fraction of rows with value < v (or ≤ v when
// inclusive), interpolating linearly within the containing bucket.
func (h *Histogram) below(v int64, inclusive bool) float64 {
	acc := 0.0
	for _, b := range h.Buckets {
		switch {
		case v > b.Hi:
			acc += b.Count
		case v < b.Lo:
			return acc / h.Total
		default:
			span := float64(b.Hi-b.Lo) + 1
			within := float64(v - b.Lo)
			if inclusive {
				within++
			}
			acc += b.Count * within / span
			return acc / h.Total
		}
	}
	return acc / h.Total
}

// find returns the index of the bucket containing v, or -1.
func (h *Histogram) find(v int64) int {
	i := sort.Search(len(h.Buckets), func(i int) bool { return h.Buckets[i].Hi >= v })
	if i == len(h.Buckets) || v < h.Buckets[i].Lo {
		return -1
	}
	return i
}
