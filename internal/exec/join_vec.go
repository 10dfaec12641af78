package exec

import (
	"io"
	"sort"

	"repro/internal/expr"
	"repro/internal/storage"
)

// graceTable is the hash join's partitioned (grace-style) build table:
// keys are hash-partitioned into 8 partitions by their top hash bits,
// and each partition keeps an open-addressed key directory over flat
// parallel entry arrays. Compared to map[int64][]expr.Row this removes
// the per-distinct-key slice allocations and the map's per-probe
// hashing/bucket walk, keeps each partition's entries contiguous, and
// preserves per-key insertion order through chain links — so match
// emission order is identical to the map-append build.
//
// A table starts small and grows with what is inserted (grow re-probes
// only chain heads, so chains and their order survive), and the
// executor's bufPool recycles it across runs: a build pays for the rows
// it meters, not for the size of the base tables beneath it.
const (
	gracePartBits = 3
	graceParts    = 1 << gracePartBits
	// graceMinSlots is a fresh partition's directory size.
	graceMinSlots = 16
)

type graceTable struct {
	parts [graceParts]gracePart
}

type gracePart struct {
	// slots/tails form the open-addressed directory: a slot holds the
	// entry index+1 of its key's chain head (0 = empty), tails the
	// chain's last entry for O(1) in-order appends.
	slots []int32
	tails []int32
	mask  uint64
	// Entry arrays, parallel: key, next same-key entry (-1 ends the
	// chain), and the build row.
	keys []int64
	next []int32
	rows []expr.Row
}

// hashKey is Fibonacci hashing; the multiplier spreads consecutive ints
// across both the top (partition) and low (slot) bits.
func hashKey(k int64) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

func newGraceTable() *graceTable {
	t := &graceTable{}
	for i := range t.parts {
		p := &t.parts[i]
		p.slots = make([]int32, graceMinSlots)
		p.tails = make([]int32, graceMinSlots)
		p.mask = graceMinSlots - 1
	}
	return t
}

// reset empties the table for reuse, keeping its grown arrays. A
// directory much larger than its entry count (grown by an earlier, larger
// build) is cleared slot by slot through the entries' own probe
// positions, so emptying costs what was inserted, not what was reserved.
func (t *graceTable) reset() {
	for i := range t.parts {
		p := &t.parts[i]
		if len(p.keys) == 0 {
			continue
		}
		if 8*len(p.keys) >= len(p.slots) {
			clear(p.slots)
		} else {
			// Find every entry's chain-head slot before zeroing any, since
			// zeroing breaks the probe sequences of later keys; next is
			// dead after the run and holds the slot positions meanwhile.
			for e, k := range p.keys {
				s := hashKey(k) & p.mask
				for p.keys[p.slots[s]-1] != k {
					s = (s + 1) & p.mask
				}
				p.next[e] = int32(s)
			}
			for _, s := range p.next {
				p.slots[s] = 0
			}
		}
		clear(p.rows)
		p.keys, p.next, p.rows = p.keys[:0], p.next[:0], p.rows[:0]
	}
}

func (t *graceTable) insert(k int64, row expr.Row) {
	h := hashKey(k)
	t.parts[h>>(64-gracePartBits)].insert(h, k, row)
}

func (p *gracePart) insert(h uint64, k int64, row expr.Row) {
	if 2*(len(p.keys)+1) > len(p.slots) {
		p.grow()
	}
	e := int32(len(p.keys))
	p.keys = append(p.keys, k)
	p.next = append(p.next, -1)
	p.rows = append(p.rows, row)
	s := h & p.mask
	for {
		head := p.slots[s]
		if head == 0 {
			p.slots[s] = e + 1
			p.tails[s] = e + 1
			return
		}
		if p.keys[head-1] == k {
			p.next[p.tails[s]-1] = e
			p.tails[s] = e + 1
			return
		}
		s = (s + 1) & p.mask
	}
}

// grow doubles the slot directory. Chains live in the entry arrays and
// are untouched; only the distinct keys' heads re-probe.
func (p *gracePart) grow() {
	old, oldTails := p.slots, p.tails
	n := len(old) * 2
	p.slots = make([]int32, n)
	p.tails = make([]int32, n)
	p.mask = uint64(n - 1)
	for i, head := range old {
		if head == 0 {
			continue
		}
		s := hashKey(p.keys[head-1]) & p.mask
		for p.slots[s] != 0 {
			s = (s + 1) & p.mask
		}
		p.slots[s] = head
		p.tails[s] = oldTails[i]
	}
}

// lookup returns the partition and first entry index of the key's
// chain, or entry -1 when the key is absent.
func (t *graceTable) lookup(k int64) (*gracePart, int32) {
	h := hashKey(k)
	p := &t.parts[h>>(64-gracePartBits)]
	s := h & p.mask
	for {
		head := p.slots[s]
		if head == 0 {
			return p, -1
		}
		if p.keys[head-1] == k {
			return p, head - 1
		}
		s = (s + 1) & p.mask
	}
}

// buildKeyCol returns the typed int column behind a batch's key
// position when the batch aliases a scanned relation with a clean,
// null-free columnar projection — letting build and probe loops read
// keys from the contiguous vector instead of chasing row pointers.
func buildKeyCol(b *rowBatch, pos int) *storage.Column {
	if b.rel == nil {
		return nil
	}
	if c := b.rel.Col(pos); c != nil && c.Kind == expr.KindInt && !c.HasNulls() {
		return c
	}
	return nil
}

// vecHashJoin builds on the right child and probes with the left, batch
// at a time. The probe loop gathers all matches of consecutive probe
// rows into the output arena; output charges accumulate in outPending
// and bill as one ChargeN per emitted arena (flushed at take / EOF).
// At capacity 1 (lockstep) the arena holds one row, so the flush
// degenerates to the tuple engine's exact per-row charge order.
type vecHashJoin struct {
	vecJoinBase
	clsBuild, clsProbe, clsOut int
	out                        *outBuf
	table                      *graceTable
	// slab holds the build rows copied out of unstable batches.
	slab       *valSlab
	pb         *rowBatch
	pkc        *storage.Column // pb's clean int key vector, if any
	pi         int
	cur        expr.Row
	mp         *gracePart
	me         int32
	outPending int64
	done       bool
}

func (h *vecHashJoin) Open() error {
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	h.table = h.e.pool.getTable()
	kpos := h.jc.rightPos[0]
	for {
		b, err := h.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n := b.n()
		if _, err := h.meter.ChargeN(h.clsBuild, int64(n)); err != nil {
			return err
		}
		h.obs.RightRows += int64(n)
		if kc := buildKeyCol(b, kpos); kc != nil {
			// Columnar build: keys come straight off the typed vector at
			// the batch's absolute offsets; scan batches are stable, so
			// rows are referenced without copying.
			if b.sel == nil {
				for i := 0; i < n; i++ {
					h.table.insert(kc.Ints[b.off+i], b.base[i])
				}
			} else {
				for _, s := range b.sel {
					h.table.insert(kc.Ints[b.off+int(s)], b.base[s])
				}
			}
			continue
		}
		for i := 0; i < n; i++ {
			row := b.row(i)
			k := row[kpos]
			if k.IsNull() {
				continue
			}
			if !b.stable {
				if h.slab == nil {
					h.slab = h.e.pool.getSlab()
				}
				row = h.slab.copyRow(row)
			}
			h.table.insert(k.I, row)
		}
	}
	h.pb, h.pkc, h.pi = nil, nil, 0
	h.mp, h.me = nil, -1
	h.outPending = 0
	h.done = false
	return nil
}

// flushOut bills the accumulated output charges of the current arena.
func (h *vecHashJoin) flushOut() error {
	if h.outPending == 0 {
		return nil
	}
	n := h.outPending
	h.outPending = 0
	_, err := h.meter.ChargeN(h.clsOut, n)
	return err
}

// fastProbe counts the build matches of every key in the probe batch.
func (h *vecHashJoin) fastProbe(b *rowBatch, kc *storage.Column) int64 {
	matches := int64(0)
	ints := kc.Ints
	if b.sel == nil {
		for i := range b.base {
			p, e := h.table.lookup(ints[b.off+i])
			for ; e >= 0; e = p.next[e] {
				matches++
			}
		}
		return matches
	}
	for _, s := range b.sel {
		p, e := h.table.lookup(ints[b.off+int(s)])
		for ; e >= 0; e = p.next[e] {
			matches++
		}
	}
	return matches
}

func (h *vecHashJoin) NextBatch() (*rowBatch, error) {
	if h.done {
		return nil, io.EOF
	}
	h.out.reset()
	for {
		// Drain the current probe row's pending matches into the arena.
		gathered := int64(0)
		for h.me >= 0 && !h.out.full() {
			r := h.mp.rows[h.me]
			h.me = h.mp.next[h.me]
			if !h.jc.residualsMatch(h.cur, r) {
				continue
			}
			h.out.emit(h.cur, r)
			gathered++
		}
		if gathered > 0 {
			h.outPending += gathered
			h.obs.OutRows += gathered
		}
		if h.out.full() {
			if err := h.flushOut(); err != nil {
				return nil, err
			}
			return h.out.take(), nil
		}
		// Matches exhausted: advance to the next probe row.
		if h.pb == nil || h.pi >= h.pb.n() {
			b, err := h.left.NextBatch()
			if err == io.EOF {
				h.exact = true
				h.done = true
				if err := h.flushOut(); err != nil {
					return nil, err
				}
				if h.out.len() > 0 {
					return h.out.take(), nil
				}
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			if _, err := h.meter.ChargeN(h.clsProbe, int64(b.n())); err != nil {
				return nil, err
			}
			h.obs.LeftRows += int64(b.n())
			h.pb, h.pi = b, 0
			h.pkc = buildKeyCol(b, h.jc.leftPos[0])
			// Count-only fast probe: when the root arena discards rows and
			// the join has no residual predicates, matches only need to be
			// counted — the whole probe batch runs as one tight loop over
			// the columnar key vector with no row fetches or emits.
			if h.pkc != nil && h.out.discard && len(h.jc.ids) == 1 {
				m := h.fastProbe(b, h.pkc)
				h.outPending += m
				h.obs.OutRows += m
				h.out.count += int(m)
				h.pi = b.n()
				if h.out.full() {
					if err := h.flushOut(); err != nil {
						return nil, err
					}
					return h.out.take(), nil
				}
				continue
			}
		}
		if h.pkc != nil {
			// The probe batch aliases a scan with a clean key column: read
			// the key off the vector and fetch the row only on a match.
			ord := h.pi
			if h.pb.sel != nil {
				ord = int(h.pb.sel[ord])
			}
			h.pi++
			h.mp, h.me = h.table.lookup(h.pkc.Ints[h.pb.off+ord])
			if h.me >= 0 {
				h.cur = h.pb.base[ord]
			}
			continue
		}
		row := h.pb.row(h.pi)
		h.pi++
		k := row[h.jc.leftPos[0]]
		if k.IsNull() {
			h.mp, h.me = nil, -1
			continue
		}
		h.cur = row
		h.mp, h.me = h.table.lookup(k.I)
	}
}

func (h *vecHashJoin) Close() error {
	h.e.pool.putOut(h.out)
	h.out = nil
	if err := h.left.Close(); err != nil {
		return err
	}
	if h.right != nil {
		// A morsel-worker clone shares the built table (right == nil marks
		// the clone); only the owner recycles it and its slab.
		h.e.pool.putTable(h.table)
		h.e.pool.putSlab(h.slab)
		h.table, h.slab = nil, nil
		return h.right.Close()
	}
	return nil
}

// vecMergeJoin drains and sorts both inputs at Open, then merges batch
// at a time. Merge-advance charges for one left row and its right-side
// skips are consecutive in the tuple engine too, so they are billed as
// one ChargeN chunk — identical counts at every possible kill point.
type vecMergeJoin struct {
	vecJoinBase
	clsMerge, clsOut int
	out              *outBuf
	lrows, rrows     []expr.Row
	// slab holds the input rows copied out of unstable batches.
	slab   *valSlab
	li, ri int
	group  []expr.Row
	gi     int
	cur    expr.Row
	done   bool
}

func (m *vecMergeJoin) Open() error {
	if err := m.left.Open(); err != nil {
		return err
	}
	if err := m.right.Open(); err != nil {
		return err
	}
	var err error
	m.lrows, err = m.drainAndSort(m.left, m.jc.leftPos[0])
	if err != nil {
		return err
	}
	m.rrows, err = m.drainAndSort(m.right, m.jc.rightPos[0])
	if err != nil {
		return err
	}
	m.obs.LeftRows = int64(len(m.lrows))
	m.obs.RightRows = int64(len(m.rrows))
	m.li, m.ri = 0, 0
	m.group = m.group[:0]
	m.gi = 0
	m.done = false
	return nil
}

func (m *vecMergeJoin) drainAndSort(op batchOperator, key int) ([]expr.Row, error) {
	rows := m.e.pool.getRows(0)
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n := b.n()
		for i := 0; i < n; i++ {
			row := b.row(i)
			if !b.stable {
				if m.slab == nil {
					m.slab = m.e.pool.getSlab()
				}
				row = m.slab.copyRow(row)
			}
			rows = append(rows, row)
		}
	}
	n := float64(len(rows))
	if err := m.meter.Charge(m.e.params.SortCmp * n * log2g(n)); err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return expr.Compare(rows[a][key], rows[b][key]) < 0
	})
	return rows, nil
}

func (m *vecMergeJoin) NextBatch() (*rowBatch, error) {
	if m.done {
		return nil, io.EOF
	}
	m.out.reset()
	for {
		gathered := int64(0)
		for m.gi < len(m.group) && !m.out.full() {
			r := m.group[m.gi]
			m.gi++
			if !m.jc.residualsMatch(m.cur, r) {
				continue
			}
			m.out.emit(m.cur, r)
			gathered++
		}
		if gathered > 0 {
			if _, err := m.meter.ChargeN(m.clsOut, gathered); err != nil {
				return nil, err
			}
			m.obs.OutRows += gathered
		}
		if m.out.full() {
			return m.out.take(), nil
		}
		if m.li >= len(m.lrows) {
			m.exact = true
			m.done = true
			if m.out.len() > 0 {
				return m.out.take(), nil
			}
			return nil, io.EOF
		}
		l := m.lrows[m.li]
		m.li++
		lk := l[m.jc.leftPos[0]]
		if lk.IsNull() {
			if _, err := m.meter.ChargeN(m.clsMerge, 1); err != nil {
				return nil, err
			}
			m.group = m.group[:0]
			m.gi = 0
			continue
		}
		// Advance the right cursor to the key's group, billing the left
		// row plus every skipped right row in one chunk.
		skips := int64(0)
		for m.ri+int(skips) < len(m.rrows) &&
			expr.Compare(m.rrows[m.ri+int(skips)][m.jc.rightPos[0]], lk) < 0 {
			skips++
		}
		if _, err := m.meter.ChargeN(m.clsMerge, 1+skips); err != nil {
			return nil, err
		}
		m.ri += int(skips)
		m.group = m.group[:0]
		for k := m.ri; k < len(m.rrows) && expr.Compare(m.rrows[k][m.jc.rightPos[0]], lk) == 0; k++ {
			m.group = append(m.group, m.rrows[k])
		}
		m.cur = l
		m.gi = 0
	}
}

func (m *vecMergeJoin) Close() error {
	m.e.pool.putOut(m.out)
	m.e.pool.putRows(m.lrows)
	m.e.pool.putRows(m.rrows)
	m.e.pool.putSlab(m.slab)
	m.out, m.lrows, m.rrows, m.slab = nil, nil, nil, nil
	if err := m.left.Close(); err != nil {
		return err
	}
	return m.right.Close()
}

// vecNLJoin materializes the inner child at Open and nest-loops outer
// batches over it. Pair charges up to and including the next match are
// consecutive in the tuple engine, so they bill as one ChargeN chunk —
// the charge sequence is tuple-exact at any batch capacity.
type vecNLJoin struct {
	vecJoinBase
	clsMat, clsPair, clsOut int
	out                     *outBuf
	inner                   []expr.Row
	// slab holds the inner rows copied out of unstable batches.
	slab *valSlab
	pb   *rowBatch
	pi   int
	cur  expr.Row
	ii   int
	have bool
	done bool
}

func (n *vecNLJoin) Open() error {
	if err := n.left.Open(); err != nil {
		return err
	}
	if err := n.right.Open(); err != nil {
		return err
	}
	if n.inner == nil {
		n.inner = n.e.pool.getRows(DefaultBatchSize)
	}
	n.inner = n.inner[:0]
	for {
		b, err := n.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		cnt := b.n()
		if _, err := n.meter.ChargeN(n.clsMat, int64(cnt)); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			row := b.row(i)
			if !b.stable {
				if n.slab == nil {
					n.slab = n.e.pool.getSlab()
				}
				row = n.slab.copyRow(row)
			}
			n.inner = append(n.inner, row)
		}
	}
	n.obs.RightRows = int64(len(n.inner))
	n.pb, n.pi = nil, 0
	n.have = false
	n.done = false
	return nil
}

func (n *vecNLJoin) NextBatch() (*rowBatch, error) {
	if n.done {
		return nil, io.EOF
	}
	n.out.reset()
	for {
		if !n.have {
			if n.pb == nil || n.pi >= n.pb.n() {
				b, err := n.left.NextBatch()
				if err == io.EOF {
					n.exact = true
					n.done = true
					if n.out.len() > 0 {
						return n.out.take(), nil
					}
					return nil, io.EOF
				}
				if err != nil {
					return nil, err
				}
				n.pb, n.pi = b, 0
			}
			n.cur = n.pb.row(n.pi)
			n.pi++
			n.obs.LeftRows++
			n.ii = 0
			n.have = true
		}
		// Scan the inner for the next match, counting pairs up to and
		// including the matching one.
		pairs := int64(0)
		var match expr.Row
		for n.ii < len(n.inner) {
			r := n.inner[n.ii]
			n.ii++
			pairs++
			if expr.Equal(n.cur[n.jc.leftPos[0]], r[n.jc.rightPos[0]]) && n.jc.residualsMatch(n.cur, r) {
				match = r
				break
			}
		}
		if pairs > 0 {
			if _, err := n.meter.ChargeN(n.clsPair, pairs); err != nil {
				return nil, err
			}
		}
		if match == nil {
			n.have = false // inner exhausted for this outer row
			continue
		}
		if _, err := n.meter.ChargeN(n.clsOut, 1); err != nil {
			return nil, err
		}
		n.obs.OutRows++
		n.out.emit(n.cur, match)
		if n.out.full() {
			return n.out.take(), nil
		}
	}
}

func (n *vecNLJoin) Close() error {
	n.e.pool.putOut(n.out)
	n.out = nil
	if err := n.left.Close(); err != nil {
		return err
	}
	if n.right != nil {
		// A morsel-worker clone shares the materialized inner with the
		// original operator (right == nil marks the clone); only the
		// owner recycles it and its slab.
		n.e.pool.putRows(n.inner)
		n.e.pool.putSlab(n.slab)
		n.inner, n.slab = nil, nil
		return n.right.Close()
	}
	return nil
}
