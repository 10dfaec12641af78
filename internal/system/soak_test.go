package system

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/ess"
	"repro/internal/faultinject"
)

// soakCases enumerates the soak workload: all three algorithms over a
// strided set of true locations, each with and without chaos. The case
// index doubles as the deterministic fault-substream ID.
func soakCases(s *ess.Space) []struct {
	alg   core.Algorithm
	qa    int32
	chaos bool
} {
	var cases []struct {
		alg   core.Algorithm
		qa    int32
		chaos bool
	}
	for _, alg := range chaosAlgs {
		for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 3 {
			for _, chaos := range []bool{false, true} {
				cases = append(cases, struct {
					alg   core.Algorithm
					qa    int32
					chaos bool
				}{alg, qa, chaos})
			}
		}
	}
	return cases
}

// TestConcurrentSoak is the concurrency contract of the compile/run
// split, meant to run under -race: all three algorithms, with and
// without chaos, discover simultaneously over one shared Compiled
// artifact, and every outcome must be bit-for-bit identical to the
// sequential reference run of the same case. Determinism under
// concurrency rests on three properties this test pins down: the Space
// is immutable after Build (induced plans are interned by signature, so
// a plan gets the same ID no matter which run adds it first), planner
// decisions are pure functions of the frozen compile-time state, and
// each chaos run forks its own fault substream from the case index, so
// scheduling cannot reorder anyone's fault schedule.
func TestConcurrentSoak(t *testing.T) {
	s := buildRandomSpace(t, 11, 4, 2, 6)
	base := faultinject.New(chaosConfig(2016))
	cases := soakCases(s)

	runCase := func(c *core.Compiled, i int) (*discovery.Outcome, error) {
		r := c.NewRun()
		if cases[i].chaos {
			r = r.WithFaults(base.Fork(uint64(i)))
		}
		return r.Discover(cases[i].alg, cases[i].qa)
	}

	// Sequential reference phase. This also interns every plan the cases
	// can induce, so the concurrent phase exercises pure lock-free reads
	// plus idempotent re-interning.
	cSeq, err := core.Compile(s, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantOut := make([]*discovery.Outcome, len(cases))
	wantErr := make([]error, len(cases))
	for i := range cases {
		wantOut[i], wantErr[i] = runCase(cSeq, i)
	}

	// Concurrent phase: a fresh Compiled over the same Space, every case
	// in its own goroutine at once.
	cConc, err := core.Compile(s, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotOut := make([]*discovery.Outcome, len(cases))
	gotErr := make([]error, len(cases))
	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotOut[i], gotErr[i] = runCase(cConc, i)
		}(i)
	}
	wg.Wait()

	mismatches := 0
	for i, cs := range cases {
		if (wantErr[i] == nil) != (gotErr[i] == nil) {
			t.Fatalf("%s qa=%d chaos=%v: errors diverge: sequential %v, concurrent %v",
				cs.alg, cs.qa, cs.chaos, wantErr[i], gotErr[i])
		}
		if !reflect.DeepEqual(wantOut[i], gotOut[i]) {
			mismatches++
			t.Errorf("%s qa=%d chaos=%v: concurrent outcome diverges from sequential\nsequential: %+v\nconcurrent: %+v",
				cs.alg, cs.qa, cs.chaos, wantOut[i], gotOut[i])
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d cases diverged under concurrency", mismatches, len(cases))
	}
}

// TestConcurrentSoakSharedSession is the one-artifact variant: many
// goroutines, each on its own Run, hammer one shared Compiled without
// chaos, and the largest Run.MaxPenalty any of them reports must equal
// the maximum per-outcome penalty of the sequential reference.
func TestConcurrentSoakSharedSession(t *testing.T) {
	s := buildRandomSpace(t, 13, 4, 2, 6)
	sess := compile(t, s)
	ref := compile(t, s)

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	maxPen, runPen := 0.0, 0.0
	var penMu sync.Mutex
	for _, alg := range chaosAlgs {
		for qa := int32(0); qa < int32(s.Grid.NumPoints()); qa += 5 {
			want, err := ref.NewRun().Discover(alg, qa)
			if err != nil {
				t.Fatalf("%s qa=%d reference: %v", alg, qa, err)
			}
			penMu.Lock()
			if want.AlignPenalty > maxPen {
				maxPen = want.AlignPenalty
			}
			penMu.Unlock()
			wg.Add(1)
			go func(alg core.Algorithm, qa int32, want *discovery.Outcome) {
				defer wg.Done()
				r := sess.NewRun()
				got, err := r.Discover(alg, qa)
				if err != nil {
					errc <- err
					return
				}
				penMu.Lock()
				runPen = math.Max(runPen, r.MaxPenalty())
				penMu.Unlock()
				if !reflect.DeepEqual(got, want) {
					errc <- &soakDivergence{alg: alg, qa: qa}
				}
			}(alg, qa, want)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if runPen != maxPen {
		t.Fatalf("largest Run.MaxPenalty %v, want %v", runPen, maxPen)
	}
}

type soakDivergence struct {
	alg core.Algorithm
	qa  int32
}

func (d *soakDivergence) Error() string {
	return string(d.alg) + ": concurrent outcome over a shared artifact diverges from sequential"
}
