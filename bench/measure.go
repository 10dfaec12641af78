package main

import (
	"runtime"
	"sort"
	"time"
)

// tailPercentiles are the candidates for the reported tail, highest
// first. p99.9 is not among them although the two busiest workloads
// have the samples for it: on this sandbox it is a property of the
// host's hiccups, and repeats no better than ±25%.
var tailPercentiles = []float64{99, 90}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten samples beyond it; below that a percentile is a single
// outlier, not a property of the system. With too few samples for p90
// it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, safe from rounding
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// hotBatch is how many hit-path requests share one pair of clock reads:
// two reads cost ~50 ns, under 2% of 64 half-microsecond ops.
const hotBatch = 64

// timeBatch runs op n times between one pair of clock reads and returns
// the mean duration per op.
func timeBatch(n int, op func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return time.Since(t0) / time.Duration(n)
}

// allocMeter measures bytes allocated by the whole process since it
// started, from runtime.MemStats.TotalAlloc (monotonic, so GC cycles in
// between do not disturb the delta).
type allocMeter struct{ before uint64 }

func startAllocMeter() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{before: m.TotalAlloc}
}

// bytes returns what the process allocated since the meter started.
func (a allocMeter) bytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - a.before
}

func sortedCopy(ns []int64) []int64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// liveHeapMiB forces two collections, since sync.Pool contents survive
// the first, and returns the heap still reachable.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// median returns the median of v, the lower middle value of an even
// count: interference only ever slows, so of two set-ups the faster is
// the better estimate.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
