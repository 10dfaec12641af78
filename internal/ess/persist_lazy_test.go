package ess

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// buildLazyFrom constructs a lazy space over the same fixture query as
// buildSpace, with the given settle policy.
func buildLazyFrom(t testing.TB, res int, cfg Config) *LazySpace {
	t.Helper()
	s := buildSpace(t, 2) // warm fixture for query/env/model only
	cfg.Res = res
	ls, err := BuildLazy(s.Q, s.BaseEnv, s.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// lazySnapshotBytes serializes the lazy space's base frame.
func lazySnapshotBytes(t *testing.T, ls *LazySpace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ls.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLazySnapshotRoundTrip(t *testing.T) {
	ls := buildLazyFrom(t, 8, Config{Theta: ThetaExact})
	// Settle a representative set: every full-grid contour.
	for ci := 0; ci < ls.NumContours(); ci++ {
		ls.ContourAt(nil, ci)
	}
	raw := lazySnapshotBytes(t, ls)

	got, err := LoadLazyWith(bytes.NewReader(raw), ls.Query(), ls.inner.BaseEnv, ls.inner.Model,
		Config{Theta: ThetaExact}, LoadOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ls.SettledPoints()
	if g := got.SettledPoints(); len(g) != len(want) {
		t.Fatalf("reloaded %d settled points, want %d", len(g), len(want))
	}
	for _, pt := range want {
		wc, _, wx := ls.ValueAt(pt)
		gc, _, gx := got.ValueAt(pt)
		if wc != gc || wx != gx {
			t.Fatalf("point %d: (%v, %v) != (%v, %v)", pt, gc, gx, wc, wx)
		}
		ws := ls.Plan(ls.PlanAt(pt)).Sig
		gs := got.Plan(got.PlanAt(pt)).Sig
		if ws != gs {
			t.Fatalf("point %d plan %s != %s", pt, gs, ws)
		}
	}
	for ci := 0; ci < ls.NumContours(); ci++ {
		a, b := ls.ContourAt(nil, ci), got.ContourAt(nil, ci)
		if a.Cost != b.Cost || len(a.Points) != len(b.Points) {
			t.Fatalf("contour %d differs after reload", ci)
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				t.Fatalf("contour %d point %d: %d != %d", ci, j, a.Points[j], b.Points[j])
			}
		}
	}
	if mode := got.Profile().Mode; mode != "lazy-exact" {
		t.Fatalf("reloaded mode %q", mode)
	}
}

func TestLazySnapshotDeltaAppend(t *testing.T) {
	ls := buildLazyFrom(t, 8, Config{Theta: 0.5, CoarseStep: 2})
	dir := t.TempDir()
	path := filepath.Join(dir, "lazy.snap")

	// Persist the base with only the construction anchors settled, then
	// settle the whole surface and refine a slice: both land in deltas.
	mark := make(map[int32]bool)
	if err := ls.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ls.DeltaSince(mark) // base already holds these; advance the watermark

	for ci := 0; ci < ls.NumContours(); ci++ {
		ls.ContourAt(nil, ci)
	}
	d1 := ls.DeltaSince(mark)
	if d1 == nil {
		t.Fatal("settling produced no delta")
	}
	if err := ls.AppendDeltaFile(path, d1); err != nil {
		t.Fatal(err)
	}

	g := ls.Geometry()
	for idx := 0; idx < g.Res; idx++ {
		ls.Observe(0, idx)
	}
	changed := ls.ApplyRefinements()
	if d2 := ls.DeltaSince(mark); d2 != nil {
		if changed > 0 && len(d2.Points) < changed {
			t.Fatalf("refinement delta has %d points, %d changed", len(d2.Points), changed)
		}
		if err := ls.AppendDeltaFile(path, d2); err != nil {
			t.Fatal(err)
		}
	} else if changed > 0 {
		t.Fatal("refinement changed points but produced no delta")
	}

	got, err := LoadLazyFile(path, ls.Query(), ls.inner.BaseEnv, ls.inner.Model,
		Config{Theta: 0.5, CoarseStep: 2}, LoadOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every settled point's current (post-refinement) value survives.
	for _, pt := range ls.SettledPoints() {
		wc, _, _ := ls.ValueAt(pt)
		gc, _, _ := got.ValueAt(pt)
		if wc != gc {
			t.Fatalf("point %d: reloaded %v, want %v", pt, gc, wc)
		}
	}
	// Idempotent watermark: nothing new to persist.
	if d := ls.DeltaSince(mark); d != nil {
		t.Fatalf("watermark regressed: %d points re-emitted", len(d.Points))
	}
}

func TestLazyDeltaTornTailIsCorrupt(t *testing.T) {
	ls := buildLazyFrom(t, 8, Config{Theta: ThetaExact})
	dir := t.TempDir()
	path := filepath.Join(dir, "lazy.snap")
	mark := make(map[int32]bool)
	if err := ls.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ls.DeltaSince(mark)
	ls.ContourAt(nil, 0)
	d := ls.DeltaSince(mark)
	if d == nil {
		t.Fatal("no delta to append")
	}

	in := faultinject.New(faultinject.Config{
		Seed:  11,
		Rates: map[faultinject.Site]float64{faultinject.SiteSnapshotSave: 1},
	})
	if err := ls.AppendDeltaFileWith(path, d, in); err == nil {
		t.Fatal("fault-injected append must fail")
	}
	// The torn tail is on disk (append is deliberately non-atomic) and
	// the loader must quarantine the whole snapshot, not skip the tail.
	if _, err := LoadLazyFile(path, ls.Query(), ls.inner.BaseEnv, ls.inner.Model,
		Config{Theta: ThetaExact}, LoadOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn delta tail: got %v, want ErrCorrupt", err)
	}

	// A clean retry of the same delta after rewriting the base recovers.
	if err := ls.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLazyFile(path, ls.Query(), ls.inner.BaseEnv, ls.inner.Model,
		Config{Theta: ThetaExact}, LoadOptions{Strict: true}); err != nil {
		t.Fatalf("rebuilt snapshot does not load: %v", err)
	}
}

func TestDenseAndLazyLoadersRejectEachOther(t *testing.T) {
	s := buildSpace(t, 8)
	dense := snapshotBytes(t, s)
	ls := buildLazyFrom(t, 8, Config{Theta: ThetaExact})
	sparse := lazySnapshotBytes(t, ls)

	if _, err := Load(bytes.NewReader(sparse), s.Q, s.BaseEnv, s.Model); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dense loader accepted a sparse frame: %v", err)
	}
	if _, err := LoadLazy(bytes.NewReader(dense), s.Q, s.BaseEnv, s.Model, Config{}); err == nil {
		t.Fatal("lazy loader accepted a dense frame")
	}
}

func TestLazyStrictLoadCatchesDrift(t *testing.T) {
	ls := buildLazyFrom(t, 8, Config{Theta: ThetaExact})
	for ci := 0; ci < ls.NumContours(); ci++ {
		ls.ContourAt(nil, ci)
	}
	// Corrupt one settled non-anchor point before saving: save-time
	// verification must refuse to sign (GridSig 0), and the strict load
	// must then catch the drift the anchors cannot see.
	anchors := map[int32]bool{
		int32(ls.Geometry().Origin()): true, int32(ls.Geometry().Terminus()): true,
	}
	victim := int32(-1)
	for _, pt := range ls.SettledPoints() {
		if !anchors[pt] {
			victim = pt
			break
		}
	}
	if victim < 0 {
		t.Fatal("no non-anchor settled point")
	}
	const drift = 1 + 1e-3
	ls.inner.PointCost[victim] *= drift
	raw := lazySnapshotBytes(t, ls)
	ls.inner.PointCost[victim] /= drift

	var dto spaceDTO
	if err := decodeFramePayload(raw, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.GridSig != 0 {
		t.Fatal("save-time verification signed a drifted frame")
	}
	if _, err := LoadLazyWith(bytes.NewReader(raw), ls.Query(), ls.inner.BaseEnv, ls.inner.Model,
		Config{Theta: ThetaExact}, LoadOptions{Strict: true}); err == nil {
		t.Fatal("strict lazy load must catch point cost drift")
	}

	// The clean frame carries a signature and strict-loads through the
	// fast path.
	clean := lazySnapshotBytes(t, ls)
	if err := decodeFramePayload(clean, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.GridSig == 0 {
		t.Fatal("clean frame not signed")
	}
	if _, err := LoadLazyWith(bytes.NewReader(clean), ls.Query(), ls.inner.BaseEnv, ls.inner.Model,
		Config{Theta: ThetaExact}, LoadOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseStrictLoadFastPathIsSigned(t *testing.T) {
	s := buildSpace(t, 8)
	raw := snapshotBytes(t, s)
	var dto spaceDTO
	if err := decodeFramePayload(raw, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.GridSig == 0 {
		t.Fatal("verified dense frame not signed")
	}
	if _, err := LoadWith(bytes.NewReader(raw), s.Q, s.BaseEnv, s.Model, LoadOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}
}

// decodeFramePayload decodes the base frame's DTO out of raw snapshot
// bytes (test helper for signature assertions).
func decodeFramePayload(raw []byte, dto *spaceDTO) error {
	got, err := readBaseFrame(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	*dto = *got
	return nil
}
