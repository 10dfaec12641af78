package ess

import (
	"errors"
	"sync/atomic"
	"testing"
)

// buildSpaceCfg is buildSpace with an explicit sweep configuration.
func buildSpaceCfg(t testing.TB, cfg Config) *Space {
	t.Helper()
	s := buildSpace(t, 2) // warm path for fixtures; rebuilt below
	sp, err := Build(s.Q, s.BaseEnv, s.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestRunParallelCoversAllAndStopsOnError(t *testing.T) {
	var hits atomic.Int64
	if err := runParallel(4, 100, func(w, i int) error {
		hits.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 100 {
		t.Fatalf("covered %d/100 items", hits.Load())
	}
	boom := errors.New("boom")
	if err := runParallel(4, 1000, func(w, i int) error {
		if i == 3 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestLatticeGeometry(t *testing.T) {
	l := newLattice(12, 3)
	want := []int{0, 3, 6, 9, 11}
	if len(l.idx) != len(want) {
		t.Fatalf("lattice idx = %v", l.idx)
	}
	for i, v := range want {
		if l.idx[i] != v {
			t.Fatalf("lattice idx = %v, want %v", l.idx, want)
		}
	}
	for i := 0; i < 12; i++ {
		if l.floor[i] > i || i > l.ceil[i] {
			t.Fatalf("floor/ceil disordered at %d: [%d,%d]", i, l.floor[i], l.ceil[i])
		}
		if !l.onLat[l.floor[i]] || !l.onLat[l.ceil[i]] {
			t.Fatalf("floor/ceil off lattice at %d", i)
		}
		if l.onLat[i] && (l.floor[i] != i || l.ceil[i] != i) {
			t.Fatalf("lattice point %d not its own floor/ceil", i)
		}
	}
	// Grid res smaller than the stride still includes both ends.
	l = newLattice(2, 3)
	if len(l.idx) != 2 || l.idx[0] != 0 || l.idx[1] != 1 {
		t.Fatalf("res-2 lattice = %v", l.idx)
	}
}

func TestSliceKeyHighIndexRegression(t *testing.T) {
	// byte(v+1) used to map 255 and -1 to the same byte.
	if string(AppendSliceKey(nil, []int{255, -1})) == string(AppendSliceKey(nil, []int{-1, 255})) {
		t.Fatal("AppendSliceKey collides on 255 vs -1")
	}
	seen := map[string][]int{}
	for _, learned := range [][]int{
		{-1, -1}, {0, -1}, {-1, 0}, {255, -1}, {-1, 255},
		{254, -1}, {256, -1}, {511, -1}, {255, 255}, {1000, 2},
	} {
		k := string(AppendSliceKey(nil, learned))
		if prev, ok := seen[k]; ok {
			t.Fatalf("AppendSliceKey collision: %v vs %v", prev, learned)
		}
		seen[k] = learned
	}
}

func TestRecostStatsAccounting(t *testing.T) {
	s := buildSpace(t, 12) // default config → recost pipeline
	st := s.Stats
	if st.Points != 144 {
		t.Fatalf("points = %d", st.Points)
	}
	if st.LatticeDP == 0 {
		t.Fatal("recost sweep reported no lattice DP calls")
	}
	if st.DPCalls != st.LatticeDP+st.Fallbacks+st.Repairs {
		t.Fatalf("DP accounting broken: %d != %d+%d+%d",
			st.DPCalls, st.LatticeDP, st.Fallbacks, st.Repairs)
	}
	if st.LatticeDP+st.RecostPoints+st.Fallbacks+st.Repairs != st.Points {
		t.Fatalf("point accounting broken: %+v", st)
	}
	if st.DPCalls >= st.Points {
		t.Fatalf("recost sweep ran %d DPs for %d points — no savings", st.DPCalls, st.Points)
	}
	if r := st.FallbackRate(); r < 0 || r > 1 {
		t.Fatalf("fallback rate %v out of range", r)
	}
	if st.RecostPoints > 0 && st.RecostCalls == 0 {
		t.Fatal("recost points settled without recost calls")
	}
}

func TestExactConfigStats(t *testing.T) {
	s := buildSpaceCfg(t, Config{Res: 6, Theta: ThetaExact})
	st := s.Stats
	if st.DPCalls != st.Points || st.LatticeDP != 0 || st.RecostPoints != 0 || st.Fallbacks != 0 {
		t.Fatalf("exact sweep stats: %+v", st)
	}
}

// TestRecostSurfaceValidates checks the default recost surface against a
// full exact re-optimization: never below the optimum, within θ above.
func TestRecostSurfaceValidates(t *testing.T) {
	s := buildSpace(t, 12)
	if err := s.Validate(DefaultTheta); err != nil {
		t.Fatal(err)
	}
}

// TestThetaExactReproducesExact requires the ThetaExact sentinel to
// reproduce the exact surface bit-for-bit (costs, per-point plan
// signatures, contours).
func TestThetaExactReproducesExact(t *testing.T) {
	exact := buildSpaceCfg(t, Config{Res: 8, Theta: ThetaExact})
	zero := buildSpaceCfg(t, Config{Res: 8, Theta: ThetaExact})
	if err := zero.Validate(0); err != nil {
		t.Fatal(err)
	}
	assertSameSurface(t, exact, zero)
}

// assertSameSurface compares two spaces point-by-point: bitwise equal
// costs, identical plan signatures, identical contours. Plan pool IDs
// may differ (interning order is scheduling-dependent), signatures not.
func assertSameSurface(t *testing.T, a, b *Space) {
	t.Helper()
	if a.Grid.NumPoints() != b.Grid.NumPoints() {
		t.Fatalf("grids differ: %d vs %d points", a.Grid.NumPoints(), b.Grid.NumPoints())
	}
	for pt := 0; pt < a.Grid.NumPoints(); pt++ {
		if a.PointCost[pt] != b.PointCost[pt] {
			t.Fatalf("point %d cost %v != %v", pt, a.PointCost[pt], b.PointCost[pt])
		}
		if sa, sb := a.Plan(a.PointPlan[pt]).Sig, b.Plan(b.PointPlan[pt]).Sig; sa != sb {
			t.Fatalf("point %d plan %s != %s", pt, sa, sb)
		}
	}
	if a.NumContours() != b.NumContours() {
		t.Fatalf("contour count %d != %d", a.NumContours(), b.NumContours())
	}
	for i := range a.NumContours() {
		ca, cb := a.ContourAt(nil, i), b.ContourAt(nil, i)
		if ca.Cost != cb.Cost || len(ca.Points) != len(cb.Points) {
			t.Fatalf("contour %d differs: cost %v/%v, %d/%d points",
				i, ca.Cost, cb.Cost, len(ca.Points), len(cb.Points))
		}
		for j := range ca.Points {
			if ca.Points[j] != cb.Points[j] {
				t.Fatalf("contour %d point %d: %d != %d", i, j, ca.Points[j], cb.Points[j])
			}
		}
	}
}

// TestContoursMatchRescanReference compares the binary-search contour
// extraction against the original per-contour full-rescan algorithm.
func TestContoursMatchRescanReference(t *testing.T) {
	s := buildSpace(t, 12)
	free := []int{0, 1}
	costs := s.ContourCosts()
	const eps = 1e-9
	for i, cc := range costs {
		budget := cc * (1 + eps)
		var members []int32
		for pt := range int32(s.Grid.NumPoints()) {
			if s.PointCost[pt] > budget {
				continue
			}
			maximal := true
			for _, d := range free {
				if nxt := s.Grid.Step(int(pt), d); nxt >= 0 && s.PointCost[nxt] <= budget {
					maximal = false
					break
				}
			}
			if maximal {
				members = append(members, pt)
			}
		}
		got := s.ContourAt(nil, i).Points
		if len(got) != len(members) {
			t.Fatalf("contour %d: %d members, reference %d", i, len(got), len(members))
		}
		for j := range members {
			if got[j] != members[j] {
				t.Fatalf("contour %d member %d: %d != reference %d", i, j, got[j], members[j])
			}
		}
	}
}

// TestSweepParallelWorkers exercises the work-queue sweep with many
// workers (run under -race in CI).
func TestSweepParallelWorkers(t *testing.T) {
	s := buildSpaceCfg(t, Config{Res: 10, Workers: 8})
	if err := s.Validate(DefaultTheta); err != nil {
		t.Fatal(err)
	}
	// Worker count must not change the exact surface.
	assertSameSurface(t,
		buildSpaceCfg(t, Config{Res: 10, Workers: 8, Theta: ThetaExact}),
		buildSpaceCfg(t, Config{Res: 10, Workers: 3, Theta: ThetaExact}))
}
