package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

func compiledFor(t *testing.T, name string) *core.Compiled {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Space(1.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(s, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// concurrentSteps drives runs SpillBound discoveries over one shared
// Compiled from parallel goroutines and returns their total step count.
// Each discovery gets its own Run with its own fault substream
// (base.Fork(run index)) on the sim stack with the given per-execution
// latency. True locations cycle through the grid by Knuth's
// multiplicative hash of the run index, so the work mix does not depend
// on parallelism or scheduling.
func concurrentSteps(t *testing.T, c *core.Compiled, parallel, runs int, latency time.Duration, base *faultinject.Injector) int {
	t.Helper()
	n := uint64(c.Source.Geometry().NumPoints())
	steps := make([]int, runs)
	errs := make([]error, runs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < runs; i = int(next.Add(1)) - 1 {
				qa := int32(uint64(i) * 2654435761 % n)
				r := c.NewRun().WithFaults(base.Fork(uint64(i)))
				out, err := r.DiscoverWith(core.SpillBound,
					discovery.NewSimStack(r.Context(), c.Source, qa, r.Faults(), latency))
				if err != nil {
					errs[i] = fmt.Errorf("run %d (qa=%d): %w", i, qa, err)
					continue
				}
				steps[i] = len(out.Steps)
			}
		}()
	}
	wg.Wait()
	total := 0
	for i, s := range steps {
		if errs[i] != nil {
			t.Fatalf("parallel=%d: %v", parallel, errs[i])
		}
		total += s
	}
	return total
}

// Every parallelism level must execute the same work mix: the run→qa
// mapping is a pure function of the run index, so total step counts are
// identical regardless of worker count or scheduling.
func TestThroughputSameWorkMixAcrossParallelism(t *testing.T) {
	c := compiledFor(t, "2D_Q91")
	var steps []int
	for _, p := range []int{1, 3, 8} {
		steps = append(steps, concurrentSteps(t, c, p, 24, 0, nil))
	}
	if steps[0] == 0 {
		t.Fatal("no discovery took a step")
	}
	for _, s := range steps[1:] {
		if s != steps[0] {
			t.Fatalf("total steps diverge across parallelism levels: %v", steps)
		}
	}
}

// Forked fault substreams keep concurrent chaos runs deterministic: the
// same base seed yields the same total step count at any worker count.
func TestThroughputChaosDeterministic(t *testing.T) {
	c := compiledFor(t, "2D_Q91")
	var steps []int
	for _, p := range []int{1, 4, 4} {
		steps = append(steps, concurrentSteps(t, c, p, 16, 0, faultinject.NewUniform(2016, 0.05)))
	}
	for _, s := range steps[1:] {
		if s != steps[0] {
			t.Fatalf("chaos step counts diverge across schedules: %v", steps)
		}
	}
}

// The executor pool hands out working executors and survives reuse.
func TestExecutorPoolReuse(t *testing.T) {
	h := small()
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		t.Fatal(err)
	}
	q, err := spec.Load(h.Opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	// No store: Get must still construct executors; Put must accept them
	// back without panicking even when armed with faults.
	pool := NewExecutorPool(q, nil, cost.DefaultParams())
	a := pool.Get()
	if a == nil {
		t.Fatal("pool returned nil executor")
	}
	a.WithFaults(faultinject.NewUniform(1, 1))
	pool.Put(a)
	b := pool.Get()
	if b == nil {
		t.Fatal("pool returned nil executor after Put")
	}
	pool.Put(b)
}
