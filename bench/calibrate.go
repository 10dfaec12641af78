package main

import "time"

// calibrator is a fixed piece of work that has nothing to do with the
// program under test: a pointer chase through 4 MB, lookups in a
// 64k-entry map, and a hash over 64 KB. How long it takes says how fast
// the machine is right now.
//
// The sandbox's host switches between regimes that last ten minutes or
// so and differ in speed by a third, for every kind of work alike (ten
// seeds of every workload moved together: serve_hot 0.72-1.32 M ops/s,
// query_real 40-66 ops/s, set-ups 3.1-5.2 s). No statistic within a run
// can see that, and no bound the contract allows survives it. So every
// run times this probe before and after each set-up and each lap, and
// reports each one's timings at reference speed: divided by how much
// slower than probeReference the two probes around it ran. A change to
// the program cannot move the probe, so it cancels the machine and
// nothing else.
type calibrator struct {
	next   []int32
	m      map[uint64]uint64
	keys   []uint64
	buf    []byte
	sink   uint64
	probes []float64
}

// probeReference is the probe's duration on the sandbox in its fast
// regime; timings are reported as if the probe always took this long.
const probeReference = 42 * time.Millisecond

func newCalibrator() *calibrator {
	r := newRNG(fixedSeed).fork(9)
	c := &calibrator{next: make([]int32, 1<<20), m: make(map[uint64]uint64, 1<<16), buf: make([]byte, 1<<16)}
	order := r.perm(len(c.next)) // one cycle through every slot, in random order
	for i := range order {
		c.next[order[i]] = order[(i+1)%len(order)]
	}
	for i := 0; i < 1<<16; i++ {
		k := r.next()
		c.m[k] = uint64(i)
		c.keys = append(c.keys, k)
	}
	for i := range c.buf {
		c.buf[i] = byte(r.next())
	}
	return c
}

// probe runs the fixed work once and records how long it took.
func (c *calibrator) probe() {
	t0 := time.Now()
	p := int32(0)
	for i := 0; i < 500_000; i++ {
		p = c.next[p]
	}
	s := uint64(p)
	for i := 0; i < 500_000; i++ {
		s += c.m[c.keys[(i*7919)&(1<<16-1)]]
	}
	for rep := 0; rep < 100; rep++ {
		h := uint64(fnvOffset)
		for _, b := range c.buf {
			h = (h ^ uint64(b)) * fnvPrime
		}
		s += h
	}
	c.sink += s
	c.probes = append(c.probes, float64(time.Since(t0)))
}

// take returns, for each interval between two consecutive probes since
// the last take, how many times slower than the reference the machine
// ran during it (the mean of the two probes over the reference), and
// forgets the probes.
func (c *calibrator) take() []float64 {
	var slow []float64
	for i := 1; i < len(c.probes); i++ {
		slow = append(slow, (c.probes[i-1]+c.probes[i])/2/float64(probeReference))
	}
	c.probes = c.probes[:0]
	return slow
}
