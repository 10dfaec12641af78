package ess

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// fullScanDelta is the reference DeltaSince: every settled point on
// every call, as it was before the change journal. It never touches the
// journal, so running it beside the real consumer keeps that one single.
func fullScanDelta(ls *LazySpace, mark map[int32]bool) *Delta {
	d := &Delta{}
	for _, pt := range ls.SettledPoints() {
		c, pid, exact := ls.ValueAt(pt)
		if was, ok := mark[pt]; ok && (was || !exact) {
			continue
		}
		mark[pt] = exact
		d.Points = append(d.Points, pt)
		d.Costs = append(d.Costs, c)
		d.Plans = append(d.Plans, pid)
		d.Exact = append(d.Exact, exact)
	}
	if len(d.Points) == 0 {
		return nil
	}
	return d
}

// fullScanTargets is the reference refinement-target selection: every
// grid flag against every observation.
func fullScanTargets(ls *LazySpace, obs [][2]int) []int32 {
	g := ls.inner.Grid
	var targets []int32
	for pt := 0; pt < g.NumPoints(); pt++ {
		f := ls.flags[pt].Load()
		if f&flagSolved == 0 || f&(flagExact|flagRefined) != 0 {
			continue
		}
		for _, o := range obs {
			if g.Coord(pt, o[0]) == o[1] {
				targets = append(targets, int32(pt))
				break
			}
		}
	}
	return targets
}

// journalCfg settles most points by recost from a coarse lattice, so
// refinement has targets and moves some of their values.
var journalCfg = Config{Theta: 0.65, CoarseStep: 4}

const journalRes = 12

// journalHarness drives one lazy space through a script of operations
// with two delta consumers side by side: the journaled DeltaSince and
// the full-scan reference, each with its own mark and its own snapshot
// file. After every step that emits, the two deltas, the two marks and
// the two files must be identical.
type journalHarness struct {
	t            testing.TB
	ls           *LazySpace
	jmark, rmark map[int32]bool
	jpath, rpath string
	stats        journalStats
}

// journalStats counts what a script exercised: deltas emitted, points
// re-emitted after a grade upgrade, values refinement moved, restarts.
type journalStats struct{ deltas, reEmitted, refined, restarts int }

func (s *journalStats) add(o journalStats) {
	s.deltas += o.deltas
	s.reEmitted += o.reEmitted
	s.refined += o.refined
	s.restarts += o.restarts
}

func newJournalHarness(t testing.TB) *journalHarness {
	dir := t.TempDir()
	h := &journalHarness{t: t, ls: buildLazyFrom(t, journalRes, journalCfg),
		jpath: filepath.Join(dir, "journal.snap"), rpath: filepath.Join(dir, "fullscan.snap")}
	h.saveAndPrime()
	return h
}

// saveAndPrime publishes the base frame to both files and primes both
// consumers, as the server's install does after a build or a warm load.
func (h *journalHarness) saveAndPrime() {
	for _, p := range []string{h.jpath, h.rpath} {
		if err := h.ls.SaveFile(p); err != nil {
			h.t.Fatal(err)
		}
	}
	h.jmark, h.rmark = map[int32]bool{}, map[int32]bool{}
	h.ls.DeltaSince(h.jmark)
	fullScanDelta(h.ls, h.rmark)
	h.compareState("prime")
}

func (h *journalHarness) compareState(step string) {
	h.t.Helper()
	if !reflect.DeepEqual(h.jmark, h.rmark) {
		h.t.Fatalf("%s: journal mark differs from full-scan mark", step)
	}
	jb, err := os.ReadFile(h.jpath)
	if err != nil {
		h.t.Fatal(err)
	}
	rb, err := os.ReadFile(h.rpath)
	if err != nil {
		h.t.Fatal(err)
	}
	if !bytes.Equal(jb, rb) {
		h.t.Fatalf("%s: snapshot files differ (%d vs %d bytes)", step, len(jb), len(rb))
	}
}

// delta runs both consumers and appends what each emitted to its file.
func (h *journalHarness) delta(step string) {
	h.t.Helper()
	marked := len(h.jmark)
	got, want := h.ls.DeltaSince(h.jmark), fullScanDelta(h.ls, h.rmark)
	if !reflect.DeepEqual(got, want) {
		h.t.Fatalf("%s: journal delta %+v, full scan %+v", step, got, want)
	}
	if got != nil {
		h.stats.deltas++
		h.stats.reEmitted += len(got.Points) - (len(h.jmark) - marked)
		if err := h.ls.AppendDeltaFile(h.jpath, got); err != nil {
			h.t.Fatal(err)
		}
		if err := h.ls.AppendDeltaFile(h.rpath, want); err != nil {
			h.t.Fatal(err)
		}
	}
	h.compareState(step)
}

// reload replaces the space by what a restart would load from the
// journal consumer's file, after checking that nothing was lost.
func (h *journalHarness) reload(step string) {
	h.t.Helper()
	h.delta(step)
	got, err := LoadLazyFile(h.jpath, h.ls.Query(), h.ls.inner.BaseEnv, h.ls.inner.Model,
		journalCfg, LoadOptions{Strict: true})
	if err != nil {
		h.t.Fatalf("%s: %v", step, err)
	}
	want := h.ls.SettledPoints()
	if g := got.SettledPoints(); !reflect.DeepEqual(g, want) {
		h.t.Fatalf("%s: reloaded %d settled points, want %d", step, len(g), len(want))
	}
	for _, pt := range want {
		wc, wp, wx := h.ls.ValueAt(pt)
		gc, gp, gx := got.ValueAt(pt)
		if wc != gc || wx != gx || h.ls.Plan(wp).Sig != got.Plan(gp).Sig {
			h.t.Fatalf("%s: point %d reloaded as (%v, %v), want (%v, %v)", step, pt, gc, gx, wc, wx)
		}
	}
	h.ls = got
	h.stats.restarts++
	h.saveAndPrime()
}

// run interprets script as (op, arg) byte pairs.
func (h *journalHarness) run(script []byte) {
	g := h.ls.Geometry()
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, int(script[i+1])
		switch op {
		case 0, 1: // settle one point
			h.ls.CostAt(int32(arg * 7 % g.NumPoints()))
		case 2: // settle a contour of the full grid or of a slice
			learned := []int{-1, -1}
			if arg&1 != 0 {
				learned[arg>>1&1] = arg >> 2 % g.Res
			}
			h.ls.ContourAt(learned, arg>>4%h.ls.NumContours())
		case 3, 4:
			h.ls.Observe(arg&1, arg>>1%g.Res)
		case 5:
			obs := make([][2]int, 0, len(h.ls.pending))
			for o := range h.ls.pending {
				obs = append(obs, o)
			}
			want := fullScanTargets(h.ls, obs)
			if got := h.ls.refinementTargets(obs); !reflect.DeepEqual(got, want) {
				h.t.Fatalf("step %d: refinement targets %v, full scan %v", i/2, got, want)
			}
			h.stats.refined += h.ls.ApplyRefinements()
		case 6:
			h.delta("delta")
		case 7:
			if arg%4 == 0 { // restarts are rarer than the other steps
				h.reload("restart")
			}
		}
	}
	h.reload("final")
}

// TestDeltaSinceJournalMatchesFullScan randomises interleavings of
// settle / Observe / ApplyRefinements / DeltaSince / save+LoadLazyFile
// and requires the journaled DeltaSince to emit, call for call, exactly
// the deltas of a full scan, down to byte-equal snapshot files.
func TestDeltaSinceJournalMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	var total journalStats
	for round := 0; round < 12; round++ {
		script := make([]byte, 2*(40+rng.Intn(160)))
		rng.Read(script)
		h := newJournalHarness(t)
		h.run(script)
		total.add(h.stats)
	}
	// The interleavings must have exercised what they are for.
	if total.deltas < 20 || total.reEmitted == 0 || total.refined == 0 || total.restarts < 12 {
		t.Fatalf("scripts too tame: %+v", total)
	}
	t.Logf("exercised: %+v", total)
}

// FuzzDeltaSinceJournal lets the fuzzer look for an interleaving on
// which the journal and the full scan disagree.
func FuzzDeltaSinceJournal(f *testing.F) {
	// Warm load first: preload every point, prime, and only then settle,
	// refine and emit. The journal must not replay the preloaded points.
	f.Add([]byte{2, 0x10, 2, 0x50, 7, 0, 6, 0, 0, 9, 3, 6, 5, 0, 6, 0})
	// Settle and upgrade the same points between two drains.
	f.Add([]byte{2, 0x00, 3, 4, 3, 5, 5, 0, 2, 0x30, 4, 8, 5, 0, 6, 0, 7, 4})
	f.Add([]byte{6, 0, 6, 0, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			t.Skip("oversized script")
		}
		newJournalHarness(t).run(script)
	})
}

// TestRefinementPublishesBeforeFlagging hammers DeltaSince while
// ApplyRefinements upgrades points. A point DeltaSince recorded as
// persisted at exact grade is never emitted again, so the value it was
// emitted with must be the final one: refinement has to publish the
// overlay before it raises the refined flag.
func TestRefinementPublishesBeforeFlagging(t *testing.T) {
	for round := 0; round < 8; round++ {
		ls := buildLazyFrom(t, journalRes, journalCfg)
		for ci := 0; ci < ls.NumContours(); ci++ {
			ls.ContourAt(nil, ci)
		}
		g := ls.Geometry()
		mark := map[int32]bool{}
		emitted := map[int32]float64{}
		record := func(d *Delta) {
			if d == nil {
				return
			}
			for i, pt := range d.Points {
				emitted[pt] = d.Costs[i]
			}
		}
		record(ls.DeltaSince(mark))

		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for idx := 0; idx < g.Res; idx++ {
				ls.Observe(0, idx)
				ls.ApplyRefinements()
			}
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			record(ls.DeltaSince(mark))
		}
		wg.Wait()
		record(ls.DeltaSince(mark))

		if ls.Epoch() == 0 {
			t.Fatal("refinement changed no value: the fixture does not exercise the overlay")
		}
		for pt, exact := range mark {
			c, _, _ := ls.ValueAt(pt)
			if exact && emitted[pt] != c {
				t.Fatalf("point %d persisted as exact with cost %v, final cost %v", pt, emitted[pt], c)
			}
		}
	}
}

// BenchmarkDeltaSinceSteadyState is the lazy request's common case: a
// primed consumer, 32 761 settled points (181² on the 2D fixture, the
// count serve_lazy reaches), nothing new since the last call.
func BenchmarkDeltaSinceSteadyState(b *testing.B) {
	ls := buildLazyFrom(b, 181, Config{})
	for pt := 0; pt < ls.Geometry().NumPoints(); pt++ {
		ls.CostAt(int32(pt))
	}
	mark := map[int32]bool{}
	if d := ls.DeltaSince(mark); d == nil || len(d.Points) != 181*181 {
		b.Fatalf("priming emitted %v", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := ls.DeltaSince(mark); d != nil {
			b.Fatalf("steady state emitted %d points", len(d.Points))
		}
	}
}
