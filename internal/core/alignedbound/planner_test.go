package alignedbound

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// lazy3D builds a demand-driven source over the 3-D test query. Its
// recost-settled points give ApplyRefinements values to change, so
// observations bump the epoch.
func lazy3D(t testing.TB, res int) *ess.LazySpace {
	t.Helper()
	q := testutil.MustQuery(t, "3D_test", testutil.Query3D, testutil.EPPs3D)
	env := optimizer.BuildEnv(q, stats.FromCatalog(q.Cat))
	ls, err := ess.BuildLazy(q, env, cost.NewModel(cost.DefaultParams()), ess.Config{Res: res})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// epochSource is a contour source whose reported epoch the caller sets,
// over an unchanged surface: it stands in for a caller at an older
// epoch, or for a refinement bump that moved no contour.
type epochSource struct {
	ess.ContourSource
	epoch atomic.Uint64
}

func (s *epochSource) Epoch() uint64 { return s.epoch.Load() }

// slices3D is the root slice and, per dimension, that dimension pinned
// low and mid-grid.
func slices3D(res int) [][]int {
	out := [][]int{{-1, -1, -1}}
	for d := 0; d < 3; d++ {
		for _, v := range []int{1, res / 2} {
			l := []int{-1, -1, -1}
			l[d] = v
			out = append(out, l)
		}
	}
	return out
}

// TestPlannerMemoChangesNoDecision interleaves refinement bumps with
// decisions over many (slice, contour) pairs. The long-lived planner,
// whose probe memo spans every epoch, must decide exactly as a fresh
// planner does at the same epoch. The pool must grow step by step as it
// does on a twin source whose planner starts every decision with an
// empty probe memo and decision cache: serving probes from the memo may
// not intern a plan earlier, later or more often than probing afresh.
func TestPlannerMemoChangesNoDecision(t *testing.T) {
	const res = 8
	src, twin := lazy3D(t, res), lazy3D(t, res)
	long, ref := NewPlanner(src), NewPlanner(twin)

	type step struct {
		learned []int
		ci      int
	}
	var steps []step
	for _, l := range slices3D(res) {
		for ci := 0; ci < src.NumContours(); ci++ {
			steps = append(steps, step{l, ci})
		}
	}

	bump := 0
	for round := 0; round < 4; round++ {
		for i, st := range steps {
			got := long.Decide(st.learned, st.ci)
			if want := NewPlanner(src).Decide(st.learned, st.ci); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d epoch %d slice %v contour %d: long-lived planner decided %+v, fresh planner %+v",
					round, src.Epoch(), st.learned, st.ci, got, want)
			}
			ref.probes = make(map[probeKey][]probeClass)
			clear(ref.cache)
			ref.Decide(st.learned, st.ci)
			if a, b := src.NumPlans(), twin.NumPlans(); a != b {
				t.Fatalf("round %d step %d: pool holds %d plans, memo-less twin %d", round, i, a, b)
			}
			// A refinement bump every 13 decisions, mid-sweep, on both
			// sources alike.
			if i%13 == 12 {
				d, idx := bump%3, (bump*5+2)%res
				bump++
				for _, s := range []*ess.LazySpace{src, twin} {
					s.Observe(d, idx)
					s.ApplyRefinements()
				}
				if src.Epoch() != twin.Epoch() {
					t.Fatalf("twin sources diverged: epochs %d and %d", src.Epoch(), twin.Epoch())
				}
			}
		}
	}
	if src.Epoch() < 2 {
		t.Fatalf("only %d epoch bumps: the test did not cross epochs", src.Epoch())
	}
}

// TestPlannerMemoInternsOnlyChosenClasses probes one location with more
// than one spill class. Only the class a decision chooses enters the
// pool, and a class chosen later, from the memo, is interned with the ID
// its fresh probe's plan has.
func TestPlannerMemoInternsOnlyChosenClasses(t *testing.T) {
	src := lazy3D(t, 6)
	p := NewPlanner(src)
	mask := uint16(1)<<uint(src.Geometry().D) - 1
	pt := int32(src.Geometry().Terminus())

	fresh := p.runProbe(pt, mask)
	if len(fresh) < 2 {
		t.Fatalf("probe found %d spill classes, want at least 2", len(fresh))
	}
	var ids []int
	for _, id := range src.Query().EPPs {
		if _, ok := fresh[id]; ok {
			ids = append(ids, id)
		}
	}
	a, b := ids[0], ids[1]

	before := src.NumPlans()
	c, pid, ok := p.probe(pt, mask, a, math.Inf(1))
	if !ok || c != fresh[a].Cost {
		t.Fatalf("class %d: probe = (%v, %d, %v), want cost %v", a, c, pid, ok, fresh[a].Cost)
	}
	if grown := src.NumPlans() - before; grown > 1 {
		t.Fatalf("choosing one class grew the pool by %d", grown)
	}
	if want := src.AddPlan(fresh[a].Root); pid != want {
		t.Fatalf("class %d interned as %d, its plan's ID is %d", a, pid, want)
	}
	for _, e := range p.probes[probeKey{pt: pt, mask: mask}] {
		if int(e.joinID) != a && e.planID >= 0 {
			t.Fatalf("class %d was interned (ID %d) without being chosen", e.joinID, e.planID)
		}
	}

	// Not cheaper than the candidate it would replace: nothing interned.
	if _, _, ok := p.probe(pt, mask, b, fresh[b].Cost); ok {
		t.Fatal("a probe winner that ties the candidate replaced it")
	}
	c, pid, ok = p.probe(pt, mask, b, math.Inf(1))
	if !ok || c != fresh[b].Cost {
		t.Fatalf("class %d: probe = (%v, %d, %v), want cost %v", b, c, pid, ok, fresh[b].Cost)
	}
	if want := src.AddPlan(fresh[b].Root); pid != want {
		t.Fatalf("class %d interned from the memo as %d, its plan's ID is %d", b, pid, want)
	}
}

// TestPlannerCacheKeepsCurrentEpoch: the first Decide at a newer epoch
// drops every older decision, and a Decide at an older epoch is answered
// but not stored.
func TestPlannerCacheKeepsCurrentEpoch(t *testing.T) {
	src := &epochSource{ContourSource: testutil.Space2D(t, 8)}
	p := NewPlanner(src)
	root := []int{-1, -1}
	m := src.NumContours()
	for ci := 0; ci < m; ci++ {
		p.Decide(root, ci)
	}
	if len(p.cache) != m {
		t.Fatalf("epoch 0: cache holds %d decisions, want %d", len(p.cache), m)
	}

	src.epoch.Store(2)
	cur := p.Decide(root, 0)
	if p.epoch != 2 || len(p.cache) != 1 {
		t.Fatalf("after the bump: cache epoch %d with %d decisions, want epoch 2 with 1", p.epoch, len(p.cache))
	}

	src.epoch.Store(1)
	old := p.Decide(root, 1)
	if old == nil || len(old.Execs) == 0 {
		t.Fatalf("older-epoch caller got %+v", old)
	}
	if p.epoch != 2 || len(p.cache) != 1 {
		t.Fatalf("older-epoch Decide was stored: cache epoch %d with %d decisions", p.epoch, len(p.cache))
	}
	if _, ok := p.cache[string(appendDecisionKey(nil, root, 1))]; ok {
		t.Fatal("older-epoch decision is in the cache")
	}

	src.epoch.Store(2)
	if again := p.Decide(root, 0); again != cur {
		t.Fatal("current-epoch decision was not served from the cache")
	}
	if !reflect.DeepEqual(p.Decide(root, 1), old) {
		t.Fatal("the same surface decided differently at epochs 1 and 2")
	}
	if len(p.cache) != 2 {
		t.Fatalf("cache holds %d decisions, want 2", len(p.cache))
	}
}

// TestPlannerDecideAcrossRefinementBump runs four goroutines deciding
// over one planner while a refinement bumps the epoch under them (run
// with -race). Afterwards the cache holds only current-epoch decisions,
// each equal to a fresh planner's.
func TestPlannerDecideAcrossRefinementBump(t *testing.T) {
	const res = 8
	src := lazy3D(t, res)
	p := NewPlanner(src)
	slices := slices3D(res)
	pass := func() {
		for _, l := range slices {
			for ci := 0; ci < src.NumContours(); ci++ {
				if d := p.Decide(l, ci); d == nil {
					t.Error("nil decision")
				}
			}
		}
	}

	var started, done sync.WaitGroup
	bumped := make(chan struct{})
	for g := 0; g < 4; g++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			pass()
			started.Done()
			for {
				select {
				case <-bumped:
					pass()
					return
				default:
					pass()
				}
			}
		}()
	}
	started.Wait()
	e0 := src.Epoch()
	for idx := 0; idx < res; idx++ {
		src.Observe(0, idx)
	}
	if src.ApplyRefinements() == 0 || src.Epoch() == e0 {
		t.Fatal("the refinement changed no value: no epoch bump to decide across")
	}
	close(bumped)
	done.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epoch != src.Epoch() {
		t.Fatalf("cache at epoch %d, source at %d", p.epoch, src.Epoch())
	}
	if want := len(slices) * src.NumContours(); len(p.cache) != want {
		t.Fatalf("cache holds %d decisions, want the %d of the current epoch", len(p.cache), want)
	}
	for _, l := range slices {
		for ci := 0; ci < src.NumContours(); ci++ {
			got := p.cache[string(appendDecisionKey(nil, l, ci))]
			if want := NewPlanner(src).Decide(l, ci); !reflect.DeepEqual(got, want) {
				t.Fatalf("slice %v contour %d: cached %+v, fresh planner %+v", l, ci, got, want)
			}
		}
	}
}

// TestPlannerCachedDecisionAllocatesNothing: a Decide answered from the
// cache builds its key in a stack buffer and looks it up without
// copying it, so a warm decision allocates nothing.
func TestPlannerCachedDecisionAllocatesNothing(t *testing.T) {
	p := NewPlanner(testutil.Space2D(t, 8))
	learned := []int{3, -1}
	want := p.Decide(learned, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		if p.Decide(learned, 1) != want {
			t.Fatal("warm Decide missed the cache")
		}
	}); allocs != 0 {
		t.Fatalf("warm Decide: %v allocs, want 0", allocs)
	}
}

// TestPlannerDPRunsRepeat pins the planner's DP count on a fixed Decide
// sequence, a refinement bump included: identical across two runs and
// at GOMAXPROCS 1, 2 and 4.
func TestPlannerDPRunsRepeat(t *testing.T) {
	const res = 6
	want := int64(-1)
	for _, procs := range []int{1, 2, 4} {
		for run := range 2 {
			prev := runtime.GOMAXPROCS(procs)
			src := lazy3D(t, res)
			p := NewPlanner(src)
			for i, l := range slices3D(res) {
				for ci := 0; ci < src.NumContours(); ci++ {
					p.Decide(l, ci)
				}
				if i == 3 {
					src.Observe(1, 2)
					src.ApplyRefinements()
				}
			}
			runtime.GOMAXPROCS(prev)
			got := p.DPRuns()
			if want < 0 {
				want = got
			}
			if got == 0 || got != want {
				t.Fatalf("GOMAXPROCS %d run %d: %d planner DP runs, want %d (and not 0)", procs, run, got, want)
			}
		}
	}
}
