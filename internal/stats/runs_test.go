package stats

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// runsOf loads vals into a one-column relation and returns its runs,
// grouped without an index, or with one when indexed is set.
func runsOf(vals []int64, indexed bool) ([]int64, []int32) {
	r := storage.NewRelation("v", []string{"v"})
	for _, v := range vals {
		r.Append(expr.Row{expr.Int(v)})
	}
	if indexed {
		r.BuildIndex(0)
	}
	return r.Runs(0)
}

// buildColStats summarizes vals the way FromData summarizes a column:
// through its runs.
func buildColStats(vals []int64, buckets int) *ColStats {
	keys, offs := runsOf(vals, false)
	return colStats(keys, offs, buckets)
}

// buildHistogram builds the equi-depth histogram of vals through their
// runs.
func buildHistogram(vals []int64, buckets int) *Histogram {
	keys, offs := runsOf(vals, false)
	return runHistogram(keys, offs, buckets)
}

// refColStats is the sorted-copy construction FromData used before it
// read columns off their runs, kept as the oracle: sort a copy, count
// distinct neighbours, and cut the histogram with refHistogram.
func refColStats(vals []int64, buckets int) *ColStats {
	cs := &ColStats{}
	if len(vals) == 0 {
		cs.NDV = 1
		return cs
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	cs.Min, cs.Max = sorted[0], sorted[len(sorted)-1]
	ndv := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			ndv++
		}
	}
	cs.NDV = float64(ndv)
	cs.Hist = refHistogram(sorted, buckets)
	return cs
}

// refHistogram cuts an ascending sorted slice into buckets of n/buckets
// values, extending each so equal values stay together.
func refHistogram(sorted []int64, buckets int) *Histogram {
	n := len(sorted)
	if n == 0 {
		return &Histogram{}
	}
	if buckets > n {
		buckets = n
	}
	h := &Histogram{Total: float64(n)}
	target := n / buckets
	if target < 1 {
		target = 1
	}
	i := 0
	for i < n {
		j := i + target
		if j > n {
			j = n
		}
		for j < n && sorted[j] == sorted[j-1] {
			j++
		}
		b := Bucket{Lo: sorted[i], Hi: sorted[j-1], Count: float64(j - i)}
		ndv := 1
		for k := i + 1; k < j; k++ {
			if sorted[k] != sorted[k-1] {
				ndv++
			}
		}
		b.NDV = float64(ndv)
		h.Buckets = append(h.Buckets, b)
		i = j
	}
	return h
}

// FuzzColStats checks the statistics read off a column's runs, with and
// without an index, against the sorted-copy oracle. Values are eight
// little-endian bytes each; a nonzero mod folds them into [0, mod) or
// (−mod, 0], where the index counts instead of sorting.
func FuzzColStats(f *testing.F) {
	le := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(le(), uint8(4), uint16(0))
	f.Add(le(1, 1, 1, 1, 1, 1, 1, 2, 3, 4), uint8(5), uint16(0))
	f.Add(le(9, 3, 7, 3, 3, 12, 0, 5, 9, 9, 1), uint8(3), uint16(0))
	f.Add(le(1<<40, -1<<40, 7, 1<<40, 0), uint8(2), uint16(0))
	f.Add(le(math.MaxInt64, math.MinInt64, 0, math.MaxInt64), uint8(30), uint16(0))
	f.Add(le(101, 7, 5003, 64, 99, 12345, 7, 8), uint8(7), uint16(16))
	f.Fuzz(func(t *testing.T, data []byte, buckets uint8, mod uint16) {
		var vals []int64
		for ; len(data) >= 8 && len(vals) < 1024; data = data[8:] {
			v := int64(binary.LittleEndian.Uint64(data))
			if mod != 0 {
				v %= int64(mod)
			}
			vals = append(vals, v)
		}
		b := int(buckets%64) + 1
		want := refColStats(vals, b)
		for _, indexed := range []bool{false, true} {
			keys, offs := runsOf(vals, indexed)
			if got := colStats(keys, offs, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("vals %v, %d buckets, indexed %v: got %+v %+v, want %+v %+v",
					vals, b, indexed, got, got.Hist, want, want.Hist)
			}
		}
	})
}
