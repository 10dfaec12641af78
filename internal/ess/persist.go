package ess

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
)

// Snapshot framing. A snapshot is a fixed header followed by a gob
// payload:
//
//	magic    [8]byte  "RQPSNAP\x01"
//	version  uint32   little-endian format version
//	length   uint64   little-endian payload byte count
//	crc32    uint32   IEEE CRC of the payload bytes
//	payload  []byte   gob-encoded spaceDTO
//
// The header makes corruption detectable before the gob decoder sees a
// single byte: truncation fails the length read, bit flips fail the
// CRC, and format drift fails the version check — each with a typed
// error the server's quarantine path can distinguish from a semantic
// mismatch.
const (
	// SnapshotVersion is the current snapshot format version.
	SnapshotVersion = 1

	snapshotMagic = "RQPSNAP\x01"
	headerSize    = len(snapshotMagic) + 4 + 8 + 4

	// maxSnapshotBytes caps the payload a loader will read, bounding
	// allocation from attacker-controllable length fields.
	maxSnapshotBytes = 1 << 30

	// Decode-time bounds on the persisted grid. maxD matches the uint16
	// plan-signature masks used throughout the engine; maxRes and
	// maxPoints keep a hostile header from driving huge allocations.
	maxD      = 16
	maxRes    = 1 << 12
	maxPoints = 1 << 26

	// tempPattern names in-flight snapshot temp files (os.CreateTemp
	// pattern); SweepTemps removes orphans left by crashes.
	tempPrefix  = ".rqpsnap-"
	tempPattern = tempPrefix + "*"
)

// ErrCorrupt reports a snapshot whose bytes fail integrity checking
// (bad magic, truncation, CRC mismatch, malformed or out-of-bounds
// payload). Corrupt snapshots should be quarantined and rebuilt.
var ErrCorrupt = errors.New("ess: snapshot corrupt")

// ErrVersion reports a structurally intact snapshot written by an
// incompatible format version. Stale snapshots should be quarantined
// and rebuilt, never partially decoded.
var ErrVersion = errors.New("ess: snapshot version unsupported")

// LoadOptions controls snapshot verification depth.
type LoadOptions struct {
	// Strict verifies the recorded optimal cost of every contour-member
	// point against the supplied environment and model, instead of the
	// default three-point spot check. The server's quarantine path uses
	// this before trusting a warm-loaded artifact.
	Strict bool
}

// spaceDTO is the gob wire format of a built space: enough to skip the
// expensive POSP sweep on reload. Contours and caches are rebuilt.
//
// Gob ignores unknown fields and zero-fills missing ones, so the
// GridSig / sparse additions are read compatibly by both directions of
// version skew: an old frame loads with GridSig 0 (no strict fast
// path) and Sparse false (dense).
type spaceDTO struct {
	QueryName string
	D, Res    int
	SelMin    float64
	CostRatio float64
	PlanRoots []*plan.Node
	PointPlan []int32
	PointCost []float64

	// GridSig is the save-time verification signature: non-zero only
	// when the writer recost-verified the frame's recorded costs against
	// its environment before saving, hashed together with the grid
	// parameters and bit-exact probe recosts. A strict load whose own
	// probe recosts reproduce the signature may skip the full recost the
	// writer already performed; any mismatch (or 0) takes the full path.
	GridSig uint64

	// Sparse marks a demand-driven frame: only SolvedPoints are
	// recorded, with PointPlan/PointCost/SolvedExact parallel to it,
	// instead of full grid arrays.
	Sparse       bool
	SolvedPoints []int32
	SolvedExact  []bool
}

// Save serializes the space's POSP sweep results in the framed snapshot
// format. Reloading with Load against the same query, statistics
// environment, and cost model reproduces the space without
// re-optimizing the grid — the paper's offline contour enumeration for
// canned queries (§7).
func (s *Space) Save(w io.Writer) error {
	dto := s.frameHeader()
	dto.PointPlan, dto.PointCost = s.PointPlan, s.PointCost
	dto.GridSig = s.gridSig(&dto)
	return writeFrame(w, snapshotMagic, &dto)
}

// frameHeader starts a base frame, dense or sparse: the grid
// parameters and the plan pool. The caller adds the point records.
func (s *Space) frameHeader() spaceDTO {
	dto := spaceDTO{
		QueryName: s.Q.Name,
		D:         s.Grid.D,
		Res:       s.Grid.Res,
		SelMin:    s.Grid.Vals[0],
		CostRatio: s.CostRatio,
	}
	for _, p := range s.Plans() {
		dto.PlanRoots = append(dto.PlanRoots, p.Root)
	}
	return dto
}

// gridSig recost-verifies every contour-member point against the
// space's own environment and, only when verification passes, returns
// the frame signature; 0 when any point fails, so a strict load of the
// frame always takes the full recost path.
func (s *Space) gridSig(dto *spaceDTO) uint64 {
	ev := s.NewEvaluator()
	for ci := range s.Contours {
		for _, pt := range s.Contours[ci].Points {
			if checkPoint(ev, s, pt) != nil {
				return 0
			}
		}
	}
	return s.frameSig(dto, ev)
}

// spotPoints are a frame's recost spot-check points: the origin and
// terminus, always settled, plus the grid midpoint of a dense frame (a
// sparse frame has no guaranteed midpoint).
func (s *Space) spotPoints(sparse bool) []int32 {
	pts := []int32{int32(s.Grid.Origin()), int32(s.Grid.Terminus())}
	if !sparse {
		pts = append(pts, int32(s.Grid.NumPoints()/2))
	}
	return pts
}

// frameSig hashes the frame's grid parameters together with bit-exact
// recosts of the recorded plans at its spot points into the save-time
// verification signature, so any environment or model drift that moves
// a probe by one ULP already invalidates it. A zero digest is remapped
// to 1 so 0 stays reserved for "unverified".
func (s *Space) frameSig(dto *spaceDTO, ev *Evaluator) uint64 {
	h := fnv.New64a()
	io.WriteString(h, dto.QueryName)
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	put(uint64(dto.D))
	put(uint64(dto.Res))
	put(math.Float64bits(dto.SelMin))
	put(math.Float64bits(dto.CostRatio))
	pts := s.spotPoints(dto.Sparse)
	put(uint64(len(pts)))
	for _, pt := range pts {
		put(math.Float64bits(ev.PlanCost(s.PointPlan[pt], pt)))
	}
	sig := h.Sum64()
	if sig == 0 {
		sig = 1
	}
	return sig
}

// writeFrame gob-encodes the payload and writes one framed record
// (magic, version, length, CRC, payload).
func writeFrame(w io.Writer, magic string, payload any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("ess: encoding snapshot: %w", err)
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, SnapshotVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(buf.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(buf.Bytes()))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ess: writing snapshot header: %w", err)
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("ess: writing snapshot payload: %w", err)
	}
	return nil
}

// SaveFile atomically persists the space to path: the snapshot is
// written to a temp file in the same directory, synced, and renamed
// over the target, so a crash at any instant leaves either the old
// snapshot or the new one — never a partial file.
func (s *Space) SaveFile(path string) error { return s.SaveFileWith(path, nil) }

// SaveFileWith is SaveFile with a fault injector: each write checks
// faultinject.SiteSnapshotSave, and a fired fault aborts the save
// mid-write (simulating a crash while persisting). The target path is
// untouched on any failure and the temp file is removed best-effort;
// orphans from real crashes are reclaimed by SweepTemps.
func (s *Space) SaveFileWith(path string, in *faultinject.Injector) error {
	return saveFileWith(path, in, s.Save)
}

// saveFileWith implements the atomic temp+fsync+rename publish for any
// snapshot writer (dense or sparse).
func saveFileWith(path string, in *faultinject.Injector, save func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return fmt.Errorf("ess: creating snapshot temp: %w", err)
	}
	var w io.Writer = f
	if in != nil {
		w = &faultyWriter{w: f, in: in}
	}
	err = save(w)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("ess: publishing snapshot: %w", err)
	}
	// Fsync the directory so the rename itself survives power loss, not
	// just the file contents. Best-effort: not every platform supports
	// syncing a directory handle.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// faultyWriter injects snapshot.save faults into a write stream. A
// fired fault writes half the chunk before failing, so the on-disk temp
// holds a genuinely partial snapshot — the case the atomic rename must
// keep away from the target path.
type faultyWriter struct {
	w  io.Writer
	in *faultinject.Injector
}

func (fw *faultyWriter) Write(p []byte) (int, error) {
	if ferr := fw.in.Check(faultinject.SiteSnapshotSave); ferr != nil {
		n, _ := fw.w.Write(p[:len(p)/2])
		return n, ferr
	}
	return fw.w.Write(p)
}

// SweepTemps removes orphaned snapshot temp files (from crashes mid-
// SaveFile) in dir, returning the paths removed. Removal failures are
// ignored: a live writer may own the file.
func SweepTemps(dir string) []string {
	matches, err := filepath.Glob(filepath.Join(dir, tempPattern))
	if err != nil {
		return nil
	}
	var removed []string
	for _, m := range matches {
		if !strings.HasPrefix(filepath.Base(m), tempPrefix) {
			continue
		}
		if os.Remove(m) == nil {
			removed = append(removed, m)
		}
	}
	return removed
}

// Load reconstructs a space saved with Save, with default (spot-check)
// verification. See LoadWith.
func Load(r io.Reader, q *query.Query, baseEnv *cost.Env, model *cost.Model) (*Space, error) {
	return LoadWith(r, q, baseEnv, model, LoadOptions{})
}

// LoadWith reconstructs a space saved with Save. Integrity violations
// (framing, CRC, bounds) return errors wrapping ErrCorrupt; a format
// mismatch returns one wrapping ErrVersion. The query, base
// environment, and model must semantically match the ones the space
// was built with; invariants (name, dimensionality, plan validity,
// recosted costs) are verified per opt and violations reported.
func LoadWith(r io.Reader, q *query.Query, baseEnv *cost.Env, model *cost.Model, opt LoadOptions) (*Space, error) {
	dto, err := readBaseFrame(r)
	if err != nil {
		return nil, err
	}
	return buildFromDTO(dto, q, baseEnv, model, opt)
}

// LoadFile loads the snapshot at path via LoadWith.
func LoadFile(path string, q *query.Query, baseEnv *cost.Env, model *cost.Model, opt LoadOptions) (*Space, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWith(f, q, baseEnv, model, opt)
}

// VerifyFrame checks one snapshot stream's framing — magic, version,
// declared length, and payload CRC — without deserializing the
// payload. The serving tier's snapshot fan-out uses it to cheaply
// reject a truncated or corrupt peer transfer before attempting the
// (much more expensive) strict load.
func VerifyFrame(r io.Reader) error {
	_, err := readFrame(r, snapshotMagic, false)
	return err
}

// readFrame is the one frame reader: it verifies a header carrying the
// given magic and returns the CRC-checked payload bytes. With eofOK, a
// stream that ends cleanly before the first header byte returns io.EOF
// (the end of a delta sequence); anything else short of a whole,
// intact frame — a torn header included — wraps ErrCorrupt, and a
// foreign format version wraps ErrVersion.
func readFrame(r io.Reader, magic string, eofOK bool) ([]byte, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if eofOK && err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(magic)
	version := binary.LittleEndian.Uint32(hdr[off:])
	length := binary.LittleEndian.Uint64(hdr[off+4:])
	sum := binary.LittleEndian.Uint32(hdr[off+12:])
	if version != SnapshotVersion {
		return nil, fmt.Errorf("%w: frame is v%d, this build reads v%d", ErrVersion, version, SnapshotVersion)
	}
	if length > maxSnapshotBytes {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, length)
	}
	// ReadAll grows incrementally, so a lying length field cannot force
	// a huge up-front allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCorrupt, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrCorrupt, len(payload), length)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, nil
}

// readBaseFrame reads and decodes a snapshot's base frame (dense or
// sparse; the loaders tell them apart).
func readBaseFrame(r io.Reader) (*spaceDTO, error) {
	payload, err := readFrame(r, snapshotMagic, false)
	if err != nil {
		return nil, err
	}
	var dto spaceDTO
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&dto); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return &dto, nil
}

// validCost reports whether a recorded cost is a positive finite
// number (rejecting NaN, ±Inf, zero and negatives).
func validCost(c float64) bool { return c > 0 && !math.IsInf(c, 1) }

// costsAgree is the recost tolerance every snapshot check shares: the
// recosted value within 1e-6 of the recorded one, relative to it.
func costsAgree(got, want float64) bool {
	diff := got - want
	return !(diff > 1e-6*want || diff < -1e-6*want)
}

// checkPlanTable validates a frame's plan table — every root present
// and structurally valid — before any of it reaches the pool.
func checkPlanTable(what string, roots []*plan.Node) error {
	for i, root := range roots {
		if root == nil {
			return fmt.Errorf("%w: %s plan %d is nil", ErrCorrupt, what, i)
		}
		if err := root.Validate(); err != nil {
			return fmt.Errorf("%w: %s plan %d invalid: %v", ErrCorrupt, what, i, err)
		}
	}
	return nil
}

// validateGridHeader bounds-checks the frame's grid parameters —
// treating every field as attacker-controllable — and returns the
// implied grid point count.
func validateGridHeader(dto *spaceDTO) (int, error) {
	if dto.D < 1 || dto.D > maxD {
		return 0, fmt.Errorf("%w: dimensionality %d outside [1, %d]", ErrCorrupt, dto.D, maxD)
	}
	if dto.Res < 2 || dto.Res > maxRes {
		return 0, fmt.Errorf("%w: resolution %d outside [2, %d]", ErrCorrupt, dto.Res, maxRes)
	}
	if !(dto.SelMin > 0 && dto.SelMin < 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("%w: selectivity floor %v outside (0, 1)", ErrCorrupt, dto.SelMin)
	}
	if !(dto.CostRatio > 1) || math.IsInf(dto.CostRatio, 1) {
		return 0, fmt.Errorf("%w: cost ratio %v not in (1, +Inf)", ErrCorrupt, dto.CostRatio)
	}
	np := 1
	for i := 0; i < dto.D; i++ {
		np *= dto.Res
		if np > maxPoints {
			return 0, fmt.Errorf("%w: grid %d^%d exceeds %d points", ErrCorrupt, dto.Res, dto.D, maxPoints)
		}
	}
	return np, nil
}

// buildFromDTO validates the decoded DTO — treating every field as
// attacker-controllable — and rebuilds the space.
func buildFromDTO(dto *spaceDTO, q *query.Query, baseEnv *cost.Env, model *cost.Model, opt LoadOptions) (*Space, error) {
	if dto.Sparse {
		return nil, fmt.Errorf("%w: sparse (lazy) snapshot in dense loader", ErrCorrupt)
	}
	np, err := validateGridHeader(dto)
	if err != nil {
		return nil, err
	}
	if len(dto.PointPlan) != np || len(dto.PointCost) != np {
		return nil, fmt.Errorf("%w: point arrays (%d, %d) inconsistent with grid (%d points)",
			ErrCorrupt, len(dto.PointPlan), len(dto.PointCost), np)
	}
	if len(dto.PlanRoots) == 0 {
		return nil, fmt.Errorf("%w: empty plan pool", ErrCorrupt)
	}
	for i, c := range dto.PointCost {
		if !validCost(c) {
			return nil, fmt.Errorf("%w: point %d cost %v not a positive finite number", ErrCorrupt, i, c)
		}
	}
	if dto.QueryName != q.Name {
		return nil, fmt.Errorf("ess: space was saved for query %q, not %q", dto.QueryName, q.Name)
	}
	if dto.D != q.D() {
		return nil, fmt.Errorf("ess: saved dimensionality %d != query D %d", dto.D, q.D())
	}
	g := NewGrid(dto.D, dto.Res, dto.SelMin)
	s := newSkeleton(q, baseEnv, model, g, dto.CostRatio)
	s.PointPlan, s.PointCost = dto.PointPlan, dto.PointCost
	if err := checkPlanTable("saved", dto.PlanRoots); err != nil {
		return nil, err
	}
	pool := make([]*PlanInfo, 0, len(dto.PlanRoots))
	for i, root := range dto.PlanRoots {
		pool = append(pool, &PlanInfo{ID: i, Root: root, Sig: root.Signature()})
	}
	s.publishPlans(pool)
	for _, pid := range s.PointPlan {
		if pid < 0 || int(pid) >= len(pool) {
			return nil, fmt.Errorf("%w: saved point references plan %d of %d", ErrCorrupt, pid, len(pool))
		}
	}
	s.Cmin = s.PointCost[g.Origin()]
	s.Cmax = s.PointCost[g.Terminus()]
	if s.Cmin <= 0 || s.Cmax < s.Cmin {
		return nil, fmt.Errorf("%w: saved cost surface degenerate", ErrCorrupt)
	}
	s.Contours = s.contoursOn(s.allPoints(), nil)
	s.loaded = true
	// Verify recorded optimal costs against recosting the recorded plans
	// under the supplied environment and model: every contour-member
	// point in Strict mode, a three-point spot check otherwise. A frame
	// the writer already recost-verified (GridSig != 0) skips the full
	// strict pass when our own probe recosts reproduce the signature
	// bit-for-bit — any environment, model, or grid drift falls back to
	// the full recost, as does a frame whose save-time verification
	// failed (sig 0).
	ev := s.NewEvaluator()
	strictFull := opt.Strict
	if strictFull && dto.GridSig != 0 && s.frameSig(dto, ev) == dto.GridSig {
		strictFull = false
	}
	if strictFull {
		for ci := range s.Contours {
			for _, pt := range s.Contours[ci].Points {
				if err := checkPoint(ev, s, pt); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for _, pt := range s.spotPoints(false) {
			if err := checkPoint(ev, s, pt); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// checkPoint recosts the recorded plan at pt and compares it with the
// recorded optimal cost.
func checkPoint(ev *Evaluator, s *Space, pt int32) error {
	if got, want := ev.PlanCost(s.PointPlan[pt], pt), s.PointCost[pt]; !costsAgree(got, want) {
		return fmt.Errorf("ess: saved costs disagree with environment at point %d (%v vs %v)", pt, got, want)
	}
	return nil
}

// --- demand-driven (sparse) snapshots and refinement deltas -----------
//
// A lazy snapshot is a sparse base frame (the spaceDTO with Sparse set,
// recording only settled points) followed by zero or more refinement-
// delta frames, each framed exactly like the base but under its own
// magic:
//
//	magic    [8]byte  "RQPDELT\x01"
//	version  uint32   little-endian format version
//	length   uint64   little-endian payload byte count
//	crc32    uint32   IEEE CRC of the payload bytes
//	payload  []byte   gob-encoded deltaDTO
//
// Deltas are appended in place (O_APPEND), deliberately without the
// base frame's atomic rename: a crash mid-append leaves a torn tail
// that LoadLazy reports as ErrCorrupt, and the server's quarantine-
// and-rebuild path recovers exactly as it does for a corrupt base.

const deltaMagic = "RQPDELT\x01"

// deltaDTO is the gob wire format of one refinement-delta record: a
// self-contained batch of settled or refined point values. PlanIdx
// indexes the delta's own PlanRoots table (interned into the pool at
// load), so a delta never depends on pool IDs assigned by whichever
// process wrote the base frame.
type deltaDTO struct {
	Points    []int32
	Costs     []float64
	PlanIdx   []int32
	Exact     []bool
	PlanRoots []*plan.Node
}

// Delta is one batch of point values to append after a lazy snapshot's
// base frame. Plans holds pool IDs in the saving source's pool; the
// encoder translates them to a self-contained plan table.
type Delta struct {
	Points []int32
	Costs  []float64
	Plans  []int32
	Exact  []bool
}

// DeltaSince collects every settled point whose current value has not
// been persisted yet and advances the watermark map (point → persisted
// as exact-grade). A recost-settled point re-emits once refinement
// upgrades it to exact grade; nil is returned when nothing new settled.
//
// A space has one DeltaSince consumer, which owns the mark: the first
// call, with an empty mark, scans every settled point and starts the
// change journal; each later call passes the same mark and visits only
// the points journaled since the previous one (sorted, deduplicated), so
// a call with nothing new costs nothing. The emitted delta is the one a
// full scan would emit.
func (ls *LazySpace) DeltaSince(mark map[int32]bool) *Delta {
	var pts []int32
	if len(mark) == 0 {
		ls.journal.prime()
		pts = ls.SettledPoints()
	} else {
		pts = ls.journal.drain()
		slices.Sort(pts)
		pts = slices.Compact(pts)
	}
	var d *Delta
	for _, pt := range pts {
		c, pid, exact := ls.ValueAt(pt)
		if was, ok := mark[pt]; ok && (was || !exact) {
			continue
		}
		mark[pt] = exact
		if d == nil {
			d = &Delta{}
		}
		d.Points = append(d.Points, pt)
		d.Costs = append(d.Costs, c)
		d.Plans = append(d.Plans, pid)
		d.Exact = append(d.Exact, exact)
	}
	return d
}

// Save serializes the lazy space's settled points as a sparse base
// frame. Reload with LoadLazy (the dense Load rejects sparse frames).
func (ls *LazySpace) Save(w io.Writer) error {
	pts := ls.SettledPoints()
	dto := ls.inner.frameHeader()
	dto.Sparse, dto.SolvedPoints = true, pts
	dto.SolvedExact = make([]bool, len(pts))
	dto.PointPlan = make([]int32, len(pts))
	dto.PointCost = make([]float64, len(pts))
	for i, pt := range pts {
		dto.PointCost[i], dto.PointPlan[i], dto.SolvedExact[i] = ls.ValueAt(pt)
	}
	dto.GridSig = ls.gridSig(&dto)
	return writeFrame(w, snapshotMagic, &dto)
}

// gridSig recost-verifies every recorded point value against the
// source's own environment (mirroring Space.gridSig, which verifies
// contour members) and signs the frame only on success.
func (ls *LazySpace) gridSig(dto *spaceDTO) uint64 {
	ev := ls.inner.NewEvaluator()
	for i, pt := range dto.SolvedPoints {
		if !costsAgree(ev.PlanCost(dto.PointPlan[i], pt), dto.PointCost[i]) {
			return 0
		}
	}
	return ls.inner.frameSig(dto, ev)
}

// SaveFile atomically persists the sparse base frame to path (see
// Space.SaveFile). Any previously appended deltas are folded away: the
// published snapshot is base-only with every settled point inline.
func (ls *LazySpace) SaveFile(path string) error { return ls.SaveFileWith(path, nil) }

// SaveFileWith is SaveFile with a fault injector on the write stream.
func (ls *LazySpace) SaveFileWith(path string, in *faultinject.Injector) error {
	return saveFileWith(path, in, ls.Save)
}

// AppendDelta frames the delta and writes it to w.
func (ls *LazySpace) AppendDelta(w io.Writer, d *Delta) error {
	n := len(d.Points)
	if len(d.Costs) != n || len(d.Plans) != n || len(d.Exact) != n {
		return fmt.Errorf("ess: delta arrays inconsistent (%d, %d, %d, %d)",
			n, len(d.Costs), len(d.Plans), len(d.Exact))
	}
	dto := deltaDTO{Points: d.Points, Costs: d.Costs, Exact: d.Exact}
	local := make(map[int32]int32)
	for _, pid := range d.Plans {
		li, ok := local[pid]
		if !ok {
			li = int32(len(dto.PlanRoots))
			local[pid] = li
			dto.PlanRoots = append(dto.PlanRoots, ls.Plan(pid).Root)
		}
		dto.PlanIdx = append(dto.PlanIdx, li)
	}
	return writeFrame(w, deltaMagic, &dto)
}

// AppendDeltaFile appends the framed delta to the snapshot at path.
// The append is deliberately not atomic — a crash mid-append leaves a
// torn tail that the next LoadLazy reports as ErrCorrupt, routing the
// snapshot through quarantine-and-rebuild.
func (ls *LazySpace) AppendDeltaFile(path string, d *Delta) error {
	return ls.AppendDeltaFileWith(path, d, nil)
}

// AppendDeltaFileWith is AppendDeltaFile with a fault injector: each
// write checks faultinject.SiteSnapshotSave, and a fired fault tears
// the append mid-write (simulating a crash while persisting a delta).
func (ls *LazySpace) AppendDeltaFileWith(path string, d *Delta, in *faultinject.Injector) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ess: opening snapshot for delta append: %w", err)
	}
	cw := &countingWriter{w: f}
	if in != nil {
		cw.w = &faultyWriter{w: f, in: in}
	}
	err = ls.AppendDelta(cw, d)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		ls.stats.deltaAppends.Add(1)
		ls.stats.deltaPoints.Add(int64(len(d.Points)))
		ls.stats.deltaBytes.Add(cw.n)
	}
	return err
}

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// LoadLazy reconstructs a demand-driven space from a sparse base frame
// plus any refinement-delta frames appended after it. See LoadLazyWith.
func LoadLazy(r io.Reader, q *query.Query, baseEnv *cost.Env, model *cost.Model, cfg Config) (*LazySpace, error) {
	return LoadLazyWith(r, q, baseEnv, model, cfg, LoadOptions{})
}

// LoadLazyWith reconstructs a lazy space saved with LazySpace.Save and
// grown with AppendDelta. The grid geometry comes from the frame; cfg
// supplies the settle policy (Theta/CoarseStep) for points the
// snapshot does not cover. The origin and terminus are re-solved
// exactly and checked against the recorded values, so a frame from a
// different environment is rejected up front; Strict additionally
// recost-verifies every recorded point, with the same GridSig fast
// path as the dense loader. Integrity violations — including a torn
// delta tail from a crashed append — return errors wrapping ErrCorrupt.
func LoadLazyWith(r io.Reader, q *query.Query, baseEnv *cost.Env, model *cost.Model, cfg Config, opt LoadOptions) (*LazySpace, error) {
	dto, err := readBaseFrame(r)
	if err != nil {
		return nil, err
	}
	ls, err := lazyFromDTO(dto, q, baseEnv, model, cfg, opt)
	if err != nil {
		return nil, err
	}
	for {
		dp, err := readFrame(r, deltaMagic, true)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := ls.applyDeltaPayload(dp); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// LoadLazyFile loads the lazy snapshot at path via LoadLazyWith.
func LoadLazyFile(path string, q *query.Query, baseEnv *cost.Env, model *cost.Model, cfg Config, opt LoadOptions) (*LazySpace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadLazyWith(f, q, baseEnv, model, cfg, opt)
}

// lazyFromDTO validates the sparse base frame and reconstructs the
// lazy space: a fresh skeleton (origin and terminus solved exactly,
// fixing the ladder) preloaded with the recorded settled points.
func lazyFromDTO(dto *spaceDTO, q *query.Query, baseEnv *cost.Env, model *cost.Model, cfg Config, opt LoadOptions) (*LazySpace, error) {
	if !dto.Sparse {
		return nil, fmt.Errorf("ess: dense snapshot in lazy loader (use Load)")
	}
	np, err := validateGridHeader(dto)
	if err != nil {
		return nil, err
	}
	n := len(dto.SolvedPoints)
	if len(dto.PointPlan) != n || len(dto.PointCost) != n || len(dto.SolvedExact) != n {
		return nil, fmt.Errorf("%w: sparse arrays (%d, %d, %d, %d) inconsistent",
			ErrCorrupt, n, len(dto.PointPlan), len(dto.PointCost), len(dto.SolvedExact))
	}
	if n > np {
		return nil, fmt.Errorf("%w: %d settled points on a %d-point grid", ErrCorrupt, n, np)
	}
	if len(dto.PlanRoots) == 0 {
		return nil, fmt.Errorf("%w: empty plan pool", ErrCorrupt)
	}
	for i, pt := range dto.SolvedPoints {
		if pt < 0 || int(pt) >= np {
			return nil, fmt.Errorf("%w: settled point %d outside grid", ErrCorrupt, pt)
		}
		if i > 0 && pt <= dto.SolvedPoints[i-1] {
			return nil, fmt.Errorf("%w: settled points not strictly ascending at %d", ErrCorrupt, i)
		}
		if c := dto.PointCost[i]; !validCost(c) {
			return nil, fmt.Errorf("%w: point %d cost %v not a positive finite number", ErrCorrupt, pt, c)
		}
		if pid := dto.PointPlan[i]; pid < 0 || int(pid) >= len(dto.PlanRoots) {
			return nil, fmt.Errorf("%w: saved point references plan %d of %d", ErrCorrupt, pid, len(dto.PlanRoots))
		}
	}
	if dto.QueryName != q.Name {
		return nil, fmt.Errorf("ess: space was saved for query %q, not %q", dto.QueryName, q.Name)
	}
	if dto.D != q.D() {
		return nil, fmt.Errorf("ess: saved dimensionality %d != query D %d", dto.D, q.D())
	}

	cfg.Res = dto.Res
	cfg.SelMin = dto.SelMin
	cfg.CostRatio = dto.CostRatio
	ls, err := BuildLazy(q, baseEnv, model, cfg)
	if err != nil {
		return nil, err
	}
	ids, err := ls.internPlanTable("saved", dto.PlanRoots)
	if err != nil {
		return nil, err
	}
	g := ls.Geometry()
	origin, terminus := int32(g.Origin()), int32(g.Terminus())
	seenOrigin, seenTerminus := false, false
	for i, pt := range dto.SolvedPoints {
		if pt == origin || pt == terminus {
			// Already solved exactly by BuildLazy: the fresh value is
			// authoritative, the recorded one must agree with this
			// environment.
			if got, want := ls.inner.PointCost[pt], dto.PointCost[i]; !costsAgree(got, want) {
				return nil, fmt.Errorf("ess: saved costs disagree with environment at point %d (%v vs %v)", pt, want, got)
			}
			seenOrigin = seenOrigin || pt == origin
			seenTerminus = seenTerminus || pt == terminus
			continue
		}
		ls.preload(pt, dto.PointCost[i], ids[dto.PointPlan[i]], dto.SolvedExact[i])
	}
	if !seenOrigin || !seenTerminus {
		return nil, fmt.Errorf("%w: sparse frame missing origin or terminus", ErrCorrupt)
	}
	if opt.Strict {
		ev := ls.inner.NewEvaluator()
		if dto.GridSig == 0 || ls.inner.frameSig(dto, ev) != dto.GridSig {
			for i, pt := range dto.SolvedPoints {
				if got, want := ev.PlanCost(ids[dto.PointPlan[i]], pt), dto.PointCost[i]; !costsAgree(got, want) {
					return nil, fmt.Errorf("ess: saved costs disagree with environment at point %d (%v vs %v)", pt, got, want)
				}
			}
		}
	}
	return ls, nil
}

// internPlanTable validates a frame's plan table and interns it into
// the pool, returning the pool ID of each table entry. Nothing is
// interned unless the whole table is valid.
func (ls *LazySpace) internPlanTable(what string, roots []*plan.Node) ([]int32, error) {
	if err := checkPlanTable(what, roots); err != nil {
		return nil, err
	}
	ids := make([]int32, len(roots))
	for i, root := range roots {
		ids[i] = ls.AddPlan(root)
	}
	return ids, nil
}

// applyDeltaPayload decodes one delta record and installs its values,
// interning the delta's plan table into the pool. Later deltas win over
// earlier ones and over the base frame, matching append order.
func (ls *LazySpace) applyDeltaPayload(payload []byte) error {
	var d deltaDTO
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&d); err != nil {
		return fmt.Errorf("%w: decoding delta: %v", ErrCorrupt, err)
	}
	n := len(d.Points)
	if len(d.Costs) != n || len(d.PlanIdx) != n || len(d.Exact) != n {
		return fmt.Errorf("%w: delta arrays (%d, %d, %d, %d) inconsistent",
			ErrCorrupt, n, len(d.Costs), len(d.PlanIdx), len(d.Exact))
	}
	ids, err := ls.internPlanTable("delta", d.PlanRoots)
	if err != nil {
		return err
	}
	np := ls.Geometry().NumPoints()
	for i, pt := range d.Points {
		if pt < 0 || int(pt) >= np {
			return fmt.Errorf("%w: delta point %d outside grid", ErrCorrupt, pt)
		}
		if c := d.Costs[i]; !validCost(c) {
			return fmt.Errorf("%w: delta point %d cost %v not a positive finite number", ErrCorrupt, pt, c)
		}
		li := d.PlanIdx[i]
		if li < 0 || int(li) >= len(ids) {
			return fmt.Errorf("%w: delta point references plan %d of %d", ErrCorrupt, li, len(ids))
		}
		ls.preload(pt, d.Costs[i], ids[li], d.Exact[i])
	}
	return nil
}
