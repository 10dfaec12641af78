package exec

import (
	"io"
	"sort"

	"repro/internal/expr"
)

// graceTable is the hash join's partitioned (grace-style) build table:
// keys are hash-partitioned into 8 partitions by their top hash bits,
// and each partition keeps an open-addressed key directory over flat
// parallel entry arrays. An entry's build tuple — one row ordinal per
// base relation of the build side — lives in the partition's flat
// ordinal arena, w int32s per entry. Compared to map[int64][]expr.Row
// this removes the per-distinct-key slice allocations and the map's
// per-probe hashing/bucket walk, keeps each partition's entries
// contiguous, and preserves per-key insertion order through chain
// links — so match emission order is identical to the map-append build.
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
	// Entry arrays, parallel: key and next same-key entry (-1 ends the
	// chain); entry e's build tuple is ords[e*w : e*w+w].
	keys []int64
	next []int32
	ords []int32
	w    int
}

// tuple returns entry e's build tuple.
func (p *gracePart) tuple(e int32) []int32 {
	i := int(e) * p.w
	return p.ords[i : i+p.w]
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
		p.keys, p.next, p.ords = p.keys[:0], p.next[:0], p.ords[:0]
	}
}

// insert adds row i of batch b under key k.
func (t *graceTable) insert(k int64, b *rowBatch, i int) {
	h := hashKey(k)
	p := &t.parts[h>>(64-gracePartBits)]
	for _, o := range b.ords {
		p.ords = append(p.ords, o[i])
	}
	p.insert(h, k)
}

func (p *gracePart) insert(h uint64, k int64) {
	if 2*(len(p.keys)+1) > len(p.slots) {
		p.grow()
	}
	e := int32(len(p.keys))
	p.keys = append(p.keys, k)
	p.next = append(p.next, -1)
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
	pb                         *rowBatch
	// pkeys is the probe key's NULL-free int vector, if it has one.
	pkeys      []int64
	pi         int
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
	h.table = h.e.pool.getTable(h.rw)
	key := &h.refs.preds[0].r
	ints := key.clean()
	for {
		b, err := h.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n := b.n
		if _, err := h.meter.ChargeN(h.clsBuild, int64(n)); err != nil {
			return err
		}
		h.obs.RightRows += int64(n)
		for i, o := range b.ords[key.slot][:n] {
			if ints != nil {
				h.table.insert(ints[o], b, i)
			} else if k, ok := key.key(o); ok {
				h.table.insert(k, b, i)
			}
		}
	}
	h.pkeys = h.refs.preds[0].l.clean()
	h.pb, h.pi = nil, 0
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
func (h *vecHashJoin) fastProbe(b *rowBatch) int64 {
	matches := int64(0)
	ints := h.pkeys
	for _, o := range b.ords[h.refs.preds[0].l.slot][:b.n] {
		p, e := h.table.lookup(ints[o])
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
			r := h.mp.tuple(h.me)
			h.me = h.mp.next[h.me]
			if !h.refs.candidateMatch(h.out.cur, r) {
				continue
			}
			h.out.emit(r)
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
		if h.pb == nil || h.pi >= h.pb.n {
			b, err := h.left.NextBatch()
			if err == io.EOF {
				h.exact = true
				h.done = true
				if err := h.flushOut(); err != nil {
					return nil, err
				}
				if h.out.n > 0 {
					return h.out.take(), nil
				}
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			if _, err := h.meter.ChargeN(h.clsProbe, int64(b.n)); err != nil {
				return nil, err
			}
			h.obs.LeftRows += int64(b.n)
			h.pb, h.pi = b, 0
			// Count-only fast probe: when the root arena discards rows and
			// the join has no residual predicates, matches only need to be
			// counted — the whole probe batch runs as one tight loop over
			// the columnar key vector with no tuple loads or emits.
			if h.pkeys != nil && h.out.discard && len(h.refs.preds) == 1 && !h.refs.rowKey {
				m := h.fastProbe(b)
				h.outPending += m
				h.obs.OutRows += m
				h.out.n += int(m)
				h.pi = b.n
				if h.out.full() {
					if err := h.flushOut(); err != nil {
						return nil, err
					}
					return h.out.take(), nil
				}
				continue
			}
		}
		// Read the probe key at its ordinal and load the probe tuple only
		// on a match.
		i := h.pi
		h.pi++
		o := h.pb.ords[h.refs.preds[0].l.slot][i]
		var k int64
		if h.pkeys != nil {
			k = h.pkeys[o]
		} else {
			var ok bool
			if k, ok = h.refs.preds[0].l.key(o); !ok {
				h.mp, h.me = nil, -1
				continue
			}
		}
		h.mp, h.me = h.table.lookup(k)
		if h.me >= 0 {
			h.out.load(h.pb, i)
		}
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
		// the clone); only the owner recycles it.
		h.e.pool.putTable(h.table)
		h.table = nil
		return h.right.Close()
	}
	return nil
}

// ordTuples is a flat arena of w-wide ordinal tuples (tuple t at
// a[t*w : t*w+w]) and the order they are read in: a merge join's sorted
// input.
type ordTuples struct {
	w    int
	a    []int32
	perm []int32
}

func (t *ordTuples) len() int { return len(t.perm) }

// at returns the i-th tuple in read order.
func (t *ordTuples) at(i int) []int32 {
	p := int(t.perm[i]) * t.w
	return t.a[p : p+t.w]
}

// vecMergeJoin drains and sorts both inputs at Open, then merges batch
// at a time. Merge-advance charges for one left row and its right-side
// skips are consecutive in the tuple engine too, so they are billed as
// one ChargeN chunk — identical counts at every possible kill point.
type vecMergeJoin struct {
	vecJoinBase
	clsMerge, clsOut int
	out              *outBuf
	lt, rt           ordTuples
	li, ri           int
	// gi..ge is the rest of the current left row's right-key group.
	gi, ge int
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
	m.lt, err = m.drainAndSort(m.left, &m.refs.preds[0].l, len(m.out.cur))
	if err != nil {
		return err
	}
	m.rt, err = m.drainAndSort(m.right, &m.refs.preds[0].r, m.rw)
	if err != nil {
		return err
	}
	m.obs.LeftRows = int64(m.lt.len())
	m.obs.RightRows = int64(m.rt.len())
	m.li, m.ri = 0, 0
	m.gi, m.ge = 0, 0
	m.done = false
	return nil
}

// drainAndSort copies every w-wide tuple of op into a pooled arena and
// sorts it stably on key, with the comparisons the tuple engine's sort
// makes, so both engines produce the same order.
func (m *vecMergeJoin) drainAndSort(op batchOperator, key *colRef, w int) (ordTuples, error) {
	t := ordTuples{w: w, a: m.e.pool.getInts(0)}
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return t, err
		}
		for i := 0; i < b.n; i++ {
			for _, o := range b.ords {
				t.a = append(t.a, o[i])
			}
		}
	}
	cnt := len(t.a) / w
	t.perm = m.e.pool.getInts(cnt)
	for i := 0; i < cnt; i++ {
		t.perm = append(t.perm, int32(i))
	}
	n := float64(cnt)
	if err := m.meter.Charge(m.e.params.SortCmp * n * log2g(n)); err != nil {
		return t, err
	}
	keyAt := func(i int) int32 { return t.a[int(t.perm[i])*w+key.slot] }
	if ints := key.clean(); ints != nil {
		sort.SliceStable(t.perm, func(a, b int) bool { return ints[keyAt(a)] < ints[keyAt(b)] })
	} else {
		sort.SliceStable(t.perm, func(a, b int) bool {
			return expr.Compare(key.value(keyAt(a)), key.value(keyAt(b))) < 0
		})
	}
	return t, nil
}

// rkey returns the merge key of the right tuple at sorted position i.
func (m *vecMergeJoin) rkey(i int) expr.Value {
	r := &m.refs.preds[0].r
	return r.value(m.rt.at(i)[r.slot])
}

func (m *vecMergeJoin) NextBatch() (*rowBatch, error) {
	if m.done {
		return nil, io.EOF
	}
	m.out.reset()
	for {
		gathered := int64(0)
		for m.gi < m.ge && !m.out.full() {
			r := m.rt.at(m.gi)
			m.gi++
			if !m.refs.residualsMatch(m.out.cur, r) {
				continue
			}
			m.out.emit(r)
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
		if m.li >= m.lt.len() {
			m.exact = true
			m.done = true
			if m.out.n > 0 {
				return m.out.take(), nil
			}
			return nil, io.EOF
		}
		l := m.lt.at(m.li)
		m.li++
		lk := m.refs.preds[0].l.value(l[m.refs.preds[0].l.slot])
		if lk.IsNull() {
			if _, err := m.meter.ChargeN(m.clsMerge, 1); err != nil {
				return nil, err
			}
			m.gi, m.ge = 0, 0
			continue
		}
		// Advance the right cursor to the key's group, billing the left
		// row plus every skipped right row in one chunk.
		skips := 0
		for m.ri+skips < m.rt.len() && expr.Compare(m.rkey(m.ri+skips), lk) < 0 {
			skips++
		}
		if _, err := m.meter.ChargeN(m.clsMerge, 1+int64(skips)); err != nil {
			return nil, err
		}
		m.ri += skips
		m.gi, m.ge = m.ri, m.ri
		for m.ge < m.rt.len() && expr.Compare(m.rkey(m.ge), lk) == 0 {
			m.ge++
		}
		copy(m.out.cur, l)
	}
}

func (m *vecMergeJoin) Close() error {
	m.e.pool.putOut(m.out)
	for _, t := range []*ordTuples{&m.lt, &m.rt} {
		m.e.pool.putInts(t.a)
		m.e.pool.putInts(t.perm)
		*t = ordTuples{}
	}
	m.out = nil
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
	// inner holds the inner's rw-wide tuples in a flat pooled arena.
	inner []int32
	pb    *rowBatch
	pi    int
	ii    int // next inner tuple
	have  bool
	done  bool
}

func (n *vecNLJoin) Open() error {
	if err := n.left.Open(); err != nil {
		return err
	}
	if err := n.right.Open(); err != nil {
		return err
	}
	if n.inner == nil {
		n.inner = n.e.pool.getInts(DefaultBatchSize)
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
		if _, err := n.meter.ChargeN(n.clsMat, int64(b.n)); err != nil {
			return err
		}
		for i := 0; i < b.n; i++ {
			for _, o := range b.ords {
				n.inner = append(n.inner, o[i])
			}
		}
	}
	n.obs.RightRows = int64(len(n.inner) / n.rw)
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
	lk, rk := &n.refs.preds[0].l, &n.refs.preds[0].r
	for {
		if !n.have {
			if n.pb == nil || n.pi >= n.pb.n {
				b, err := n.left.NextBatch()
				if err == io.EOF {
					n.exact = true
					n.done = true
					if n.out.n > 0 {
						return n.out.take(), nil
					}
					return nil, io.EOF
				}
				if err != nil {
					return nil, err
				}
				n.pb, n.pi = b, 0
			}
			n.out.load(n.pb, n.pi)
			n.pi++
			n.obs.LeftRows++
			n.ii = 0
			n.have = true
		}
		// Scan the inner for the next match, counting pairs up to and
		// including the matching one.
		pairs := int64(0)
		var match []int32
		lo := n.out.cur[lk.slot]
		for n.ii*n.rw < len(n.inner) {
			r := n.inner[n.ii*n.rw : (n.ii+1)*n.rw]
			n.ii++
			pairs++
			if equalAt(lk, lo, rk, r[rk.slot]) && n.refs.residualsMatch(n.out.cur, r) {
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
		n.out.emit(match)
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
		// owner recycles it.
		n.e.pool.putInts(n.inner)
		n.inner = nil
		return n.right.Close()
	}
	return nil
}
