package ess_test

import (
	"testing"

	"repro/internal/ess"
	"repro/internal/workload"
)

// lowDimSuite returns the 2D/3D workload specs, capped at res 8 so the
// exact reference sweeps stay cheap.
func lowDimSuite() []workload.Spec {
	cands := append([]workload.Spec{workload.EQ()}, workload.Suite()...)
	cands = append(cands, workload.Q91Family()...)
	var out []workload.Spec
	seen := map[string]bool{}
	for _, spec := range cands {
		if spec.D <= 3 && !seen[spec.Name] {
			seen[spec.Name] = true
			if spec.Res > 8 {
				spec.Res = 8
			}
			out = append(out, spec)
		}
	}
	return out
}

// TestThetaExactMatchesExactAcrossWorkloads requires the ThetaExact
// sentinel to reproduce the exact sweep bit-for-bit on every 2D/3D
// workload: costs, per-point plan signatures, and contours.
func TestThetaExactMatchesExactAcrossWorkloads(t *testing.T) {
	for _, spec := range lowDimSuite() {
		t.Run(spec.Name, func(t *testing.T) {
			exact, err := spec.SpaceWith(1.0, ess.Config{Theta: ess.ThetaExact})
			if err != nil {
				t.Fatal(err)
			}
			zero, err := spec.SpaceWith(1.0, ess.Config{Theta: ess.ThetaExact})
			if err != nil {
				t.Fatal(err)
			}
			n := exact.Grid.NumPoints()
			for pt := 0; pt < n; pt++ {
				if exact.PointCost[pt] != zero.PointCost[pt] {
					t.Fatalf("point %d cost %v != %v", pt, exact.PointCost[pt], zero.PointCost[pt])
				}
				es := exact.Plan(exact.PointPlan[pt]).Sig
				zs := zero.Plan(zero.PointPlan[pt]).Sig
				if es != zs {
					t.Fatalf("point %d plan %s != %s", pt, es, zs)
				}
			}
			if exact.NumContours() != zero.NumContours() {
				t.Fatalf("contours %d != %d", exact.NumContours(), zero.NumContours())
			}
			for i := range exact.NumContours() {
				a, b := exact.ContourAt(nil, i), zero.ContourAt(nil, i)
				if a.Cost != b.Cost || len(a.Points) != len(b.Points) {
					t.Fatalf("contour %d differs", i)
				}
				for j := range a.Points {
					if a.Points[j] != b.Points[j] {
						t.Fatalf("contour %d point %d differs", i, j)
					}
				}
			}
		})
	}
}

// validateSlack is the curvature margin allowed on top of θ when
// validating a recost surface against the exact optimum. The sweep's
// fallback gate bounds the accepted recost against the log-linear
// interpolation of the cell's exact corner costs, so the end-to-end
// deviation from the optimum is (1+θ)·(1+κ) where κ is how far the
// interpolation itself can overshoot inside one coarse cell. κ=0.05
// covers the measured worst case on every 2D/3D workload (1.071 on
// 3D_Q91; ≤1.004 on all 2D grids).
const validateSlack = 0.05

// TestRecostWithinThetaAcrossWorkloads builds every 2D/3D workload with
// the default recost pipeline and validates the surface against a full
// exact re-optimization: never below the optimum, within the θ-plus-
// curvature envelope above it, with a sane fallback profile.
func TestRecostWithinThetaAcrossWorkloads(t *testing.T) {
	for _, spec := range lowDimSuite() {
		t.Run(spec.Name, func(t *testing.T) {
			s, err := spec.SpaceWith(1.0, ess.Config{})
			if err != nil {
				t.Fatal(err)
			}
			bound := (1+ess.DefaultTheta)*(1+validateSlack) - 1
			if err := s.Validate(bound); err != nil {
				t.Fatal(err)
			}
			st := s.Stats
			if st.DPCalls >= st.Points {
				t.Errorf("no DP savings: %d calls for %d points", st.DPCalls, st.Points)
			}
			if r := st.FallbackRate(); r < 0 || r > 1 {
				t.Errorf("fallback rate %v out of range", r)
			}
			if st.LatticeDP+st.RecostPoints+st.Fallbacks+st.Repairs != st.Points {
				t.Errorf("point accounting broken: %+v", st)
			}
		})
	}
}

// TestSweepPlanNumberingIndependentOfWorkers rebuilds 2D_Q91 at one and
// four workers, several times each: every build must number its plan
// pool identically and assign the same plan ID to every grid point, so
// plan labels in traces and tables do not depend on worker scheduling.
func TestSweepPlanNumberingIndependentOfWorkers(t *testing.T) {
	spec, err := workload.ByName("2D_Q91")
	if err != nil {
		t.Fatal(err)
	}
	var ref *ess.Space
	for _, workers := range []int{1, 4, 1, 4, 4, 4} {
		s, err := spec.SpaceWith(1.0, ess.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = s
			continue
		}
		if len(s.Plans()) != len(ref.Plans()) {
			t.Fatalf("workers=%d: %d plans, want %d", workers, len(s.Plans()), len(ref.Plans()))
		}
		for i, p := range s.Plans() {
			if p.Sig != ref.Plans()[i].Sig {
				t.Fatalf("workers=%d: plan %d is %s, want %s", workers, i, p.Sig, ref.Plans()[i].Sig)
			}
		}
		for pt, pid := range s.PointPlan {
			if pid != ref.PointPlan[pt] {
				t.Fatalf("workers=%d: point %d has plan %d, want %d", workers, pt, pid, ref.PointPlan[pt])
			}
		}
	}
}
