package ess_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/query"
	"repro/internal/workload"
)

// The golden frames under testdata/ were written by the commit before
// the frame-codec merge (EQ at res 4: a dense frame, and a sparse base
// frame followed by one refinement delta). Loading them strictly and
// re-saving them byte-for-byte pins the on-disk format: any drift in a
// magic, the header layout, a DTO field name or order, or the delta's
// plan-table encoding fails here before it strands a deployed snapshot.
const (
	goldenCmin = 176517.07453408482
	goldenCmax = 1.711097024988e+12
)

// goldenBinding binds EQ the way the golden frames' writer did.
func goldenBinding(t *testing.T) (*query.Query, *cost.Env, *cost.Model) {
	t.Helper()
	q, env, model, err := workload.EQ().Bind(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return q, env, model
}

func TestGoldenDenseSnapshot(t *testing.T) {
	want, err := os.ReadFile("testdata/eq_res4.snap")
	if err != nil {
		t.Fatal(err)
	}
	q, env, model := goldenBinding(t)
	sp, err := ess.LoadWith(bytes.NewReader(want), q, env, model, ess.LoadOptions{Strict: true})
	if err != nil {
		t.Fatalf("strict load of the golden dense frame: %v", err)
	}
	if sp.Cmin != goldenCmin || sp.Cmax != goldenCmax || len(sp.PointCost) != 16 {
		t.Fatalf("golden dense frame loaded as Cmin=%v Cmax=%v points=%d", sp.Cmin, sp.Cmax, len(sp.PointCost))
	}
	var got bytes.Buffer
	if err := sp.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-saved dense frame differs from the golden bytes (%d vs %d bytes)", got.Len(), len(want))
	}
}

func TestGoldenLazySnapshot(t *testing.T) {
	want, err := os.ReadFile("testdata/eq_res4.lazy.snap")
	if err != nil {
		t.Fatal(err)
	}
	q, env, model := goldenBinding(t)
	load := func(data []byte) *ess.LazySpace {
		t.Helper()
		ls, err := ess.LoadLazyWith(bytes.NewReader(data), q, env, model, ess.Config{}, ess.LoadOptions{Strict: true})
		if err != nil {
			t.Fatalf("strict load of the golden lazy frame: %v", err)
		}
		return ls
	}
	full := load(want)
	cmin, cmax := full.Bounds()
	if cmin != goldenCmin || cmax != goldenCmax || len(full.SettledPoints()) != 7 {
		t.Fatalf("golden lazy frame loaded as Cmin=%v Cmax=%v settled=%d", cmin, cmax, len(full.SettledPoints()))
	}

	// The file is a base frame plus one delta; re-emit both halves. The
	// base frame's length sits in its header (magic 8, version 4, then
	// the payload length).
	baseLen := 24 + int(binary.LittleEndian.Uint64(want[12:]))
	base := load(want[:baseLen])
	if n := len(base.SettledPoints()); n != 2 {
		t.Fatalf("golden base frame holds %d settled points, want the 2 anchors", n)
	}
	var got bytes.Buffer
	if err := base.Save(&got); err != nil {
		t.Fatal(err)
	}
	inBase := make(map[int32]bool)
	for _, pt := range base.SettledPoints() {
		inBase[pt] = true
	}
	var d ess.Delta
	for _, pt := range full.SettledPoints() {
		if inBase[pt] {
			continue
		}
		c, pid, exact := full.ValueAt(pt)
		d.Points = append(d.Points, pt)
		d.Costs = append(d.Costs, c)
		d.Plans = append(d.Plans, pid)
		d.Exact = append(d.Exact, exact)
	}
	if len(d.Points) != 5 {
		t.Fatalf("golden delta holds %d points, want 5", len(d.Points))
	}
	if err := full.AppendDelta(&got, &d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-saved base+delta differs from the golden bytes (%d vs %d bytes)", got.Len(), len(want))
	}
}
