package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of a traced request. Spans of one request
// share Req; Parent is the index (in the tracer's span list) of the span
// that caused this one, -1 for a root.
//
// The root of a served request is the black-box handler call. Its
// direct children are Replayed: the harness cannot see inside the
// program, so after the handler returns it replays the request's stages
// through the layers' exported functions on its own instances, built
// with the same configuration, and records each stage as a child that
// stands for the same stage inside the root. Spans below a replayed
// stage (engine calls, contour lookups) are measured truly nested, but
// only on a random half of the traced requests: a discovery makes a hundred
// sub-microsecond engine calls, and timing each inflates the stage that
// contains them by a fifth. Stage times therefore come from the
// requests traced without that detail, and the call profile from the
// requests traced with it.
type span struct {
	Name     string  `json:"name"`
	StartNS  int64   `json:"start_ns"`
	EndNS    int64   `json:"end_ns"`
	Parent   int32   `json:"parent"`
	Req      int64   `json:"req"`
	Replayed bool    `json:"replayed,omitempty"`
	Detailed bool    `json:"detailed,omitempty"` // root only: the request recorded spans below its stages
	Count    int     `json:"count,omitempty"`    // calls folded into this span
	Steps    int     `json:"steps,omitempty"`    // budgeted executions of a discovery
	Cost     float64 `json:"cost,omitempty"`     // cost units an execution metered
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// lookupKinds are the point accessors folded into one span per parent:
// a discovery makes hundreds of nanosecond-sized CostAt calls, and a
// span each would cost more than the calls.
var lookupKinds = [...]string{"ess.cost_at", "ess.plan_at"}

const (
	lookupCostAt = iota
	lookupPlanAt
)

type openSpan struct {
	id      int32
	lookups [len(lookupKinds)]struct {
		n  int
		ns int64
	}
}

// tracer records spans in memory; flush writes them out at exit. It is
// used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	stack []openSpan
	req   int64
	// detail is whether the open request records spans below its stages;
	// pick draws it, so that no period of the request sequence can line
	// up with it.
	detail bool
	pick   *rng
	// clockNS is the cost of one timed call's clock reads, subtracted
	// from folded lookups, which are otherwise mostly clock.
	clockNS int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), pick: newRNG(fixedSeed)}
	const probes = 1001
	d := make([]int64, probes)
	for i := range d {
		t0 := time.Now()
		d[i] = int64(time.Since(t0))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	t.clockNS = d[probes/2]
	return t
}

// detailed reports whether a request is open that records spans below
// its stages; the timing decorators pass straight through otherwise.
func (t *tracer) detailed() bool { return t.detail && len(t.stack) > 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens the root span of a new request; half the requests, picked
// at random, are detailed.
func (t *tracer) root(name string) int32 {
	t.req++
	t.stack = t.stack[:0]
	t.detail = t.pick.next()&1 == 0
	id := t.begin(name)
	t.spans[id].Detailed = t.detail
	return id
}

// begin opens a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, StartNS: t.now(), Parent: parent, Req: t.req})
	t.stack = append(t.stack, openSpan{id: id})
	return id
}

// end closes the innermost open span, which must be id, and emits its
// folded lookups as children.
func (t *tracer) end(id int32) *span {
	end := t.now()
	top := t.stack[len(t.stack)-1]
	if top.id != id {
		panic("tracer: spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = end
	for kind, l := range top.lookups {
		if l.n == 0 {
			continue
		}
		ns := l.ns - int64(l.n)*t.clockNS
		if ns < 0 {
			ns = 0
		}
		start := t.spans[id].StartNS
		t.spans = append(t.spans, span{
			Name: lookupKinds[kind], StartNS: start, EndNS: start + ns,
			Parent: id, Req: t.req, Count: l.n,
		})
	}
	return &t.spans[id]
}

// served records one black-box handler call as a root span. replay runs
// with the root still open, so the stages it replays become the root's
// children, and the root then gets back the handler's own end time. It
// returns the handler's duration and how long the replay took: the
// replay is the harness's time, not the program's.
func (t *tracer) served(call func(), replay func()) (handler, replayed time.Duration) {
	id := t.root(spanHandler)
	call()
	end := t.now()
	replay()
	sp := t.end(id)
	replayed = time.Duration(t.now() - end)
	sp.EndNS = end
	return time.Duration(sp.dur()), replayed
}

// replay times one replayed stage as a child of the open root.
func (t *tracer) replay(name string, stage func()) {
	id := t.begin(name)
	stage()
	t.end(id).Replayed = true
}

// lookup folds one point-accessor call into the innermost open span.
func (t *tracer) lookup(kind int, ns int64) {
	l := &t.stack[len(t.stack)-1].lookups[kind]
	l.n++
	l.ns += ns
}

// selfTimes returns, for every span, its duration minus the durations
// of its direct children, floored at zero: the time the layer itself
// was busy. Children of one parent never overlap (one goroutine), so
// summing their durations equals the part of the parent they cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// flushSpans writes the spans as JSON lines.
func flushSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary indexes a span list for the per-layer metrics.
type spanSummary struct {
	spans []span
	self  []int64
	by    map[string][]int32
}

// summarize indexes the spans of the requests traced with (or without)
// detail.
func summarize(spans []span, detailed bool) *spanSummary {
	s := &spanSummary{spans: spans, self: selfTimes(spans), by: map[string][]int32{}}
	keep := false
	for i, sp := range spans {
		if sp.Parent < 0 { // a request's spans follow its root
			keep = sp.Detailed == detailed
		}
		if keep {
			s.by[sp.Name] = append(s.by[sp.Name], int32(i))
		}
	}
	return s
}

func (s *spanSummary) n(name string) int { return len(s.by[name]) }

// medianUS is the median duration of the named spans in microseconds,
// per call for spans that fold several.
func (s *spanSummary) medianUS(name string) float64 {
	return medianNS(s.durs(name)) / 1e3
}

// medianSelfUS is the median self time of the named spans, per call.
func (s *spanSummary) medianSelfUS(name string) float64 {
	ids := s.by[name]
	v := make([]int64, len(ids))
	for i, id := range ids {
		v[i] = s.self[id] / int64(max(s.spans[id].Count, 1))
	}
	return medianNS(v) / 1e3
}

func (s *spanSummary) durs(name string) []int64 {
	ids := s.by[name]
	v := make([]int64, len(ids))
	for i, id := range ids {
		v[i] = s.spans[id].dur() / int64(max(s.spans[id].Count, 1))
	}
	return v
}

// total sums durations, folded call counts (1 for a plain span) and
// costs of the named spans.
func (s *spanSummary) total(name string) (ns int64, calls int, cost float64) {
	for _, id := range s.by[name] {
		sp := s.spans[id]
		ns += sp.dur()
		cost += sp.Cost
		if sp.Count > 0 {
			calls += sp.Count
		} else {
			calls++
		}
	}
	return ns, calls, cost
}

func medianNS(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	return float64(percentile(s, 50))
}

// perOp divides by the number of ops, reading 0 for none.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
