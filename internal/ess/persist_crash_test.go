package ess

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// snapshotBytes serializes the space to a byte slice.
func snapshotBytes(t *testing.T, s *Space) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsTruncatedSnapshot(t *testing.T) {
	s := buildSpace(t, 8)
	raw := snapshotBytes(t, s)
	for _, n := range []int{0, 5, headerSize - 1, headerSize, headerSize + 7, len(raw) - 1} {
		_, err := Load(bytes.NewReader(raw[:n]), s.Q, s.BaseEnv, s.Model)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	s := buildSpace(t, 8)
	raw := snapshotBytes(t, s)
	// Flip one bit in each region: magic, version, length, CRC, payload.
	for _, off := range []int{0, len(snapshotMagic), len(snapshotMagic) + 4,
		len(snapshotMagic) + 12, headerSize + len(raw[headerSize:])/2} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		_, err := Load(bytes.NewReader(mut), s.Q, s.BaseEnv, s.Model)
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit flip at offset %d: got untyped error %v", off, err)
		}
	}
}

func TestLoadRejectsStaleVersion(t *testing.T) {
	s := buildSpace(t, 8)
	raw := snapshotBytes(t, s)
	binary.LittleEndian.PutUint32(raw[len(snapshotMagic):], SnapshotVersion+1)
	_, err := Load(bytes.NewReader(raw), s.Q, s.BaseEnv, s.Model)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("stale version: got %v, want ErrVersion", err)
	}
}

func TestLoadRejectsOversizedLength(t *testing.T) {
	s := buildSpace(t, 8)
	raw := snapshotBytes(t, s)
	binary.LittleEndian.PutUint64(raw[len(snapshotMagic)+4:], maxSnapshotBytes+1)
	_, err := Load(bytes.NewReader(raw), s.Q, s.BaseEnv, s.Model)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: got %v, want ErrCorrupt", err)
	}
}

func TestSaveFileAtomic(t *testing.T) {
	s := buildSpace(t, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "eq.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, s.Q, s.BaseEnv, s.Model, LoadOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Grid.NumPoints() != s.Grid.NumPoints() {
		t.Fatal("reloaded grid differs")
	}
	// No temp droppings after a clean save.
	if left := globTemps(t, dir); len(left) != 0 {
		t.Fatalf("clean save left temps: %v", left)
	}
}

func TestSaveFileCrashLeavesNoPartialFile(t *testing.T) {
	s := buildSpace(t, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "eq.snap")

	// First persist a good snapshot, then crash an overwrite mid-write:
	// the good snapshot must survive byte for byte.
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(faultinject.Config{
		Seed:  7,
		Rates: map[faultinject.Site]float64{faultinject.SiteSnapshotSave: 1},
	})
	err = s.SaveFileWith(path, in)
	if err == nil {
		t.Fatal("fault-injected save must fail")
	}
	if !faultinject.IsTransient(err) {
		t.Fatalf("injected fault lost its classification: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("crashed overwrite modified the target snapshot")
	}
	if left := globTemps(t, dir); len(left) != 0 {
		t.Fatalf("crashed save left temps: %v", left)
	}

	// Crash a fresh save (no prior snapshot): target must not exist.
	fresh := filepath.Join(dir, "fresh.snap")
	in.Reset()
	if err := s.SaveFileWith(fresh, in); err == nil {
		t.Fatal("fault-injected save must fail")
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("crashed fresh save left a partial target: %v", err)
	}
}

func TestSweepTempsReclaimsOrphans(t *testing.T) {
	dir := t.TempDir()
	orphan, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		t.Fatal(err)
	}
	orphan.WriteString("partial snapshot bytes")
	orphan.Close()
	unrelated := filepath.Join(dir, "keep.snap")
	if err := os.WriteFile(unrelated, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed := SweepTemps(dir)
	if len(removed) != 1 || removed[0] != orphan.Name() {
		t.Fatalf("sweep removed %v, want exactly the orphan", removed)
	}
	if _, err := os.Stat(unrelated); err != nil {
		t.Fatal("sweep touched an unrelated file")
	}
}

func TestStrictLoadCatchesContourCostDrift(t *testing.T) {
	s := buildSpace(t, 8)

	// Corrupt the cost of one contour-member point that is neither the
	// origin, terminus, nor midpoint — invisible to the spot check.
	victim := int32(-1)
	spot := map[int32]bool{
		int32(s.Grid.Origin()): true, int32(s.Grid.Terminus()): true,
		int32(s.Grid.NumPoints() / 2): true,
	}
	for _, ct := range allContours(s, nil) {
		for _, pt := range ct.Points {
			if !spot[pt] {
				victim = pt
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Skip("no non-spot contour point at this resolution")
	}
	// Drift must clear the 1e-6 recost tolerance but stay far below the
	// contour bucket width, so the victim keeps its contour membership
	// in the reloaded space.
	const drift = 1 + 1e-3
	s.PointCost[victim] *= drift
	raw := snapshotBytes(t, s)
	s.PointCost[victim] /= drift

	if _, err := LoadWith(bytes.NewReader(raw), s.Q, s.BaseEnv, s.Model, LoadOptions{}); err != nil {
		t.Fatalf("spot check unexpectedly caught the drift: %v", err)
	}
	if _, err := LoadWith(bytes.NewReader(raw), s.Q, s.BaseEnv, s.Model, LoadOptions{Strict: true}); err == nil {
		t.Fatal("strict load must catch contour-member cost drift")
	}
}

func globTemps(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, tempPattern))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
