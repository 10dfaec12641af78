package main

import (
	"math"
	"sort"
)

// rng is splitmix64: the harness's only randomness, so one -seed fixes
// every generated input.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a Fisher-Yates permutation of 0..n-1.
func (r *rng) perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// fork derives an independent stream, so adding draws to one generator
// never shifts another's sequence.
func (r *rng) fork(id uint64) *rng { return newRNG(r.next() ^ id*0xd6e8feb86659fd93) }

// zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	sum := 0.0
	for k := range cum {
		sum += 1 / math.Pow(float64(k+1), s)
		cum[k] = sum
	}
	for k := range cum {
		cum[k] /= sum
	}
	return &zipf{cum: cum}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cum, r.float())
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return k
}

// FNV-1a's 64-bit parameters, for the result hashes and the machine
// probe.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fixedSeed generates everything that decides how much work a workload
// does (which keys exist, which tenants are hot). -seed only reorders
// that fixed multiset, so runs with different seeds measure the same
// work and their spread is measurement noise.
const fixedSeed = 2016
