package ess

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLoad throws arbitrary bytes at both snapshot decoders. Load and
// LoadLazy consume attacker-controllable input in the server's
// warm-load path, so they must never panic or over-allocate: every
// malformed input is rejected with an error, and any input either
// accepts yields a coherent space.
func FuzzLoad(f *testing.F) {
	s := buildSpace(f, 6)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()

	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:headerSize])
	f.Add([]byte("not a snapshot"))
	f.Add([]byte(snapshotMagic))
	// Lying length field.
	lying := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(lying[len(snapshotMagic)+4:], 1<<29)
	f.Add(lying)
	// Flipped payload byte (CRC must catch it).
	flipped := append([]byte(nil), raw...)
	flipped[headerSize+len(flipped[headerSize:])/2] ^= 1
	f.Add(flipped)

	// Sparse base frame plus refinement deltas, and mutations aimed at
	// the delta decoder: truncated tails, flipped delta payload bytes,
	// and a delta frame with no base in front of it.
	ls, err := BuildLazy(s.Q, s.BaseEnv, s.Model, Config{Res: 6, Theta: ThetaExact})
	if err != nil {
		f.Fatal(err)
	}
	mark := make(map[int32]bool)
	var lbuf bytes.Buffer
	if err := ls.Save(&lbuf); err != nil {
		f.Fatal(err)
	}
	ls.DeltaSince(mark)
	baseLen := lbuf.Len()
	ls.ContourAt(nil, 0)
	if d := ls.DeltaSince(mark); d != nil {
		if err := ls.AppendDelta(&lbuf, d); err != nil {
			f.Fatal(err)
		}
	}
	lraw := lbuf.Bytes()
	f.Add(lraw)
	f.Add(lraw[:baseLen])
	f.Add(lraw[:baseLen+(len(lraw)-baseLen)/2])
	f.Add(lraw[baseLen:])
	f.Add([]byte(deltaMagic))
	dflip := append([]byte(nil), lraw...)
	dflip[baseLen+headerSize+(len(lraw)-baseLen-headerSize)/2] ^= 1
	f.Add(dflip)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		sp, err := Load(bytes.NewReader(data), s.Q, s.BaseEnv, s.Model)
		if err == nil {
			// Accepted snapshots must be fully coherent.
			if sp.Grid.NumPoints() != len(sp.PointPlan) || len(sp.PointPlan) != len(sp.PointCost) {
				t.Fatal("accepted snapshot with inconsistent point arrays")
			}
			for _, pid := range sp.PointPlan {
				if pid < 0 || int(pid) >= sp.NumPlans() {
					t.Fatalf("accepted snapshot with out-of-pool plan id %d", pid)
				}
			}
			if !(sp.Cmin > 0) || sp.Cmax < sp.Cmin {
				t.Fatal("accepted snapshot with degenerate cost surface")
			}
		}
		lz, err := LoadLazy(bytes.NewReader(data), s.Q, s.BaseEnv, s.Model, Config{Theta: ThetaExact})
		if err != nil {
			return // rejected cleanly — the only acceptable failure mode
		}
		cmin, cmax := lz.Bounds()
		if !(cmin > 0) || cmax < cmin {
			t.Fatal("accepted lazy snapshot with degenerate cost surface")
		}
		np := lz.Geometry().NumPoints()
		for _, pt := range lz.SettledPoints() {
			if pt < 0 || int(pt) >= np {
				t.Fatalf("accepted lazy snapshot with settled point %d outside grid", pt)
			}
			c, pid, _ := lz.ValueAt(pt)
			if !(c > 0) {
				t.Fatalf("accepted lazy snapshot with cost %v at point %d", c, pt)
			}
			if pid < 0 || int(pid) >= lz.NumPlans() {
				t.Fatalf("accepted lazy snapshot with out-of-pool plan id %d", pid)
			}
		}
	})
}
