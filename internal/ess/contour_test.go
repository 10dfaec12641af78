package ess_test

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/ess"
	"repro/internal/workload"
)

// referenceContours is the contour definition applied point by point:
// a point of the slice is on contour i iff its cost is within b_i =
// CC_i·(1+1e-9) while b_i is below the cheapest cost among its
// free-dimension successors (none on a fully pinned slice).
func referenceContours(src ess.ContourSource, learned []int) [][]int32 {
	g := src.Geometry()
	costs := src.ContourCosts()
	out := make([][]int32, len(costs))
	coords := make([]int, g.D)
	for pt := range g.NumPoints() {
		g.Coords(pt, coords)
		inSlice, minSucc := true, math.Inf(1)
		for d := range g.D {
			if learned != nil && learned[d] >= 0 {
				inSlice = inSlice && coords[d] == learned[d]
			} else if nxt := g.Step(pt, d); nxt >= 0 {
				minSucc = min(minSucc, src.CostAt(int32(nxt)))
			}
		}
		if !inSlice {
			continue
		}
		c := src.CostAt(int32(pt))
		for i, cc := range costs {
			if b := cc * (1 + 1e-9); c <= b && b < minSucc {
				out[i] = append(out[i], int32(pt))
			}
		}
	}
	return out
}

// assertMonotone fails on any decreasing grid step: the boundary search
// equals the point-by-point definition only on a nondecreasing surface.
func assertMonotone(t *testing.T, src ess.ContourSource) {
	t.Helper()
	g := src.Geometry()
	for pt := range g.NumPoints() {
		for d := range g.D {
			if nxt := g.Step(pt, d); nxt >= 0 && src.CostAt(int32(nxt)) < src.CostAt(int32(pt)) {
				t.Fatalf("cost decreases from point %d to %d along dim %d", pt, nxt, d)
			}
		}
	}
}

// randomSlices returns n seeded learned vectors: each dimension pinned
// with probability 1/2, and every fourth vector fully pinned.
func randomSlices(rng *rand.Rand, g *ess.Grid, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		v := make([]int, g.D)
		for d := range v {
			v[d] = -1
			if i%4 == 3 || rng.IntN(2) == 0 {
				v[d] = rng.IntN(g.Res)
			}
		}
		out[i] = v
	}
	return out
}

// cappedRes is the spec's resolution capped so the grid holds at most
// 2000 points, which keeps three surfaces per spec cheap under -race.
func cappedRes(spec workload.Spec) int {
	r := spec.Res
	for r > 2 && math.Pow(float64(r), float64(spec.D)) > 2000 {
		r--
	}
	return r
}

func TestContourEnumeratorMatchesDefinition(t *testing.T) {
	for si, name := range workload.Names() {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := cappedRes(spec)
		surfaces := []struct {
			mode string
			cfg  ess.Config
		}{
			{"eager", ess.Config{Res: res}},
			{"eager-exact", ess.Config{Res: res, Theta: ess.ThetaExact}},
			{"lazy-exact", ess.Config{Res: res, Theta: ess.ThetaExact}},
		}
		for _, sf := range surfaces {
			t.Run(name+"/"+sf.mode, func(t *testing.T) {
				var src ess.ContourSource
				var err error
				if sf.mode == "lazy-exact" {
					src, err = spec.LazySpaceWith(1.0, sf.cfg)
				} else {
					src, err = spec.SpaceWith(1.0, sf.cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				assertMonotone(t, src)
				rng := rand.New(rand.NewPCG(1, uint64(si)))
				vectors := append([][]int{nil}, randomSlices(rng, src.Geometry(), 16)...)
				for _, learned := range vectors {
					for ci, want := range referenceContours(src, learned) {
						if got := src.ContourAt(learned, ci).Points; !slices.Equal(got, want) {
							t.Fatalf("slice %v contour %d: got %v, definition %v", learned, ci, got, want)
						}
					}
				}
			})
		}
	}
}

// sources2D returns a freshly built eager and lazy 2D_Q91 source at
// resolution 8, each with an empty contour memo.
func sources2D(t *testing.T) map[string]ess.ContourSource {
	t.Helper()
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		t.Fatal(err)
	}
	eager, lazy := buildPair(t, spec, ess.Config{Res: 8})
	return map[string]ess.ContourSource{"eager": eager, "lazy": lazy}
}

// TestContourAtFullyPinnedSlice pins every dimension: with no free
// successor to exceed, the single point sits on every contour whose
// budget covers its cost, on both providers.
func TestContourAtFullyPinnedSlice(t *testing.T) {
	for mode, src := range sources2D(t) {
		t.Run(mode, func(t *testing.T) {
			g := src.Geometry()
			learned := []int{3, 4}
			pt := int32(g.Linear(learned))
			for ci, cc := range src.ContourCosts() {
				var want []int32
				if src.CostAt(pt) <= cc*(1+1e-9) {
					want = []int32{pt}
				}
				if got := src.ContourAt(learned, ci).Points; !slices.Equal(got, want) {
					t.Fatalf("contour %d (budget %v, point cost %v): got %v, want %v",
						ci, cc, src.CostAt(pt), got, want)
				}
			}
		})
	}
}

func TestContourAtWarmAllocatesNothing(t *testing.T) {
	for mode, src := range sources2D(t) {
		for _, learned := range [][]int{nil, {-1, -1}, {3, -1}, {-1, 5}, {3, 4}} {
			ci := src.NumContours() / 2
			src.ContourAt(learned, ci)
			if a := testing.AllocsPerRun(100, func() { src.ContourAt(learned, ci) }); a != 0 {
				t.Errorf("%s: warm ContourAt(%v, %d) allocates %v per call, want 0", mode, learned, ci, a)
			}
		}
		if src.ContourAt(nil, 0) != src.ContourAt([]int{-1, -1}, 0) {
			t.Errorf("%s: nil and all-free vectors must share one memoized contour", mode)
		}
	}
}

// TestContourAtConcurrentSameContour races cold lookups of one slice:
// every goroutine must get the same memoized *Contour.
func TestContourAtConcurrentSameContour(t *testing.T) {
	const n = 8
	for mode, src := range sources2D(t) {
		for _, learned := range [][]int{nil, {2, -1}, {2, 6}} {
			for ci := range src.NumContours() {
				start := make(chan struct{})
				got := make([]*ess.Contour, n)
				var wg sync.WaitGroup
				for i := range n {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						got[i] = src.ContourAt(learned, ci)
					}()
				}
				close(start)
				wg.Wait()
				for i := range got {
					if got[i] != got[0] {
						t.Fatalf("%s slice %v contour %d: goroutine %d got a different *Contour", mode, learned, ci, i)
					}
				}
			}
		}
	}
}

// TestContourCountsRepeat runs a fixed touch sequence on four racing
// goroutines over a fresh lazy source: ContoursBuilt must be one per
// (slice, contour) touched, and contour hits plus misses one per call,
// identical across two runs and at GOMAXPROCS 1, 2 and 4, however often
// two lookups race to build one contour.
func TestContourCountsRepeat(t *testing.T) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	slices := [][]int{nil, {2, -1}, {-1, 5}, {2, 6}}
	for _, procs := range []int{1, 2, 4} {
		for run := range 2 {
			prev := runtime.GOMAXPROCS(procs)
			lazy, err := spec.LazySpaceWith(1.0, ess.Config{Res: 8})
			if err != nil {
				t.Fatal(err)
			}
			before := lazy.Profile()
			var wg sync.WaitGroup
			for range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, l := range slices {
						for ci := range lazy.NumContours() {
							lazy.ContourAt(l, ci)
						}
					}
				}()
			}
			wg.Wait()
			runtime.GOMAXPROCS(prev)
			p := lazy.Profile()
			built, calls := p.ContoursBuilt-before.ContoursBuilt, p.ContourHits+p.ContourMisses-before.ContourHits-before.ContourMisses
			if want := int64(len(slices) * lazy.NumContours()); built != want || calls != goroutines*want {
				t.Fatalf("GOMAXPROCS %d run %d: %d contours built and %d lookups, want %d and %d",
					procs, run, built, calls, want, goroutines*want)
			}
		}
	}
}
