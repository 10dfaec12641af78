package ess

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := buildSpace(t, 10)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, s.Q, s.BaseEnv, s.Model)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Grid.NumPoints() != s.Grid.NumPoints() || loaded.Grid.D != s.Grid.D {
		t.Fatal("grid shape mismatch")
	}
	if loaded.NumPlans() != s.NumPlans() {
		t.Fatalf("plan pool %d != %d", loaded.NumPlans(), s.NumPlans())
	}
	for i := range s.Plans() {
		if loaded.Plans()[i].Sig != s.Plans()[i].Sig {
			t.Fatalf("plan %d signature differs", i)
		}
	}
	for pt := range s.PointCost {
		if loaded.PointCost[pt] != s.PointCost[pt] || loaded.PointPlan[pt] != s.PointPlan[pt] {
			t.Fatalf("point %d differs after reload", pt)
		}
	}
	if loaded.NumContours() != s.NumContours() {
		t.Fatal("contours differ after reload")
	}
	for i := range s.NumContours() {
		if len(loaded.ContourAt(nil, i).Points) != len(s.ContourAt(nil, i).Points) {
			t.Fatalf("contour %d membership differs", i)
		}
	}
	// The reloaded space is fully operational: evaluator + spill dims.
	ev := loaded.NewEvaluator()
	pid := loaded.PointPlan[0]
	if c := ev.PlanCost(pid, 0); c != loaded.PointCost[0] {
		t.Fatalf("reloaded evaluator recost %v != %v", c, loaded.PointCost[0])
	}
	if d := loaded.SpillDim(pid, 0b11); d < 0 {
		t.Fatal("reloaded spill identification broken")
	}
}

func TestLoadRejectsWrongQuery(t *testing.T) {
	s := buildSpace(t, 8)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := sqlparse.Parse("other", s.Q.Cat, `SELECT * FROM store_sales ss, date_dim d
		WHERE ss.ss_sold_date_sk = d.date_dim_sk`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.MarkEPP(other, "ss.ss_sold_date_sk", "d.date_dim_sk"); err != nil {
		t.Fatal(err)
	}
	env := optimizer.BuildEnv(other, stats.FromCatalog(other.Cat))
	if _, err := Load(&buf, other, env, s.Model); err == nil {
		t.Fatal("loading into a different query must fail")
	}
}

func TestLoadRejectsWrongEnvironment(t *testing.T) {
	s := buildSpace(t, 8)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Perturb the environment: costs will no longer match the snapshot.
	env := s.BaseEnv.Clone()
	for i := range env.FilteredRows {
		env.FilteredRows[i] *= 3
	}
	if _, err := Load(&buf, s.Q, env, s.Model); err == nil {
		t.Fatal("loading under a different environment must fail the spot check")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := buildSpace(t, 8)
	if _, err := Load(bytes.NewBufferString("not gob"), s.Q, s.BaseEnv, s.Model); err == nil {
		t.Fatal("garbage input must fail")
	}
}

func TestLoadRejectsWrongModelParams(t *testing.T) {
	s := buildSpace(t, 8)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	p.HashBuild *= 10
	if _, err := Load(&buf, s.Q, s.BaseEnv, cost.NewModel(p)); err == nil {
		t.Fatal("loading under different cost params must fail the spot check")
	}
}

// TestLoadRefusesOverlongContourLadder saves frames whose cost ratio is
// barely above 1, which would put billions of contours between Cmin
// and Cmax: both loaders refuse them instead of building the ladder,
// as do the builders given such a ratio.
func TestLoadRefusesOverlongContourLadder(t *testing.T) {
	const ratio = 1 + 1e-12
	s := buildSpace(t, 6)
	s.CostRatio = ratio
	if _, err := Load(bytes.NewReader(snapshotBytes(t, s)), s.Q, s.BaseEnv, s.Model); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dense load: err %v, want ErrCorrupt", err)
	}
	ls, err := BuildLazy(s.Q, s.BaseEnv, s.Model, Config{Res: 6})
	if err != nil {
		t.Fatal(err)
	}
	ls.inner.CostRatio = ratio
	var buf bytes.Buffer
	if err := ls.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLazy(&buf, s.Q, s.BaseEnv, s.Model, Config{}); err == nil {
		t.Fatal("lazy load accepted a 1+1e-12 cost ratio")
	}
	if _, err := BuildLazy(s.Q, s.BaseEnv, s.Model, Config{Res: 6, CostRatio: ratio}); err == nil {
		t.Fatal("BuildLazy accepted a 1+1e-12 cost ratio")
	}
	if _, err := Build(s.Q, s.BaseEnv, s.Model, Config{Res: 4, CostRatio: ratio}); err == nil {
		t.Fatal("Build accepted a 1+1e-12 cost ratio")
	}
}
