package server

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-workload circuit breaker over engine/artifact
// failures. It trips open after threshold consecutive failures, rejects
// requests for cooldown, then lets a single half-open probe through; a
// successful probe closes the circuit, a failed one reopens it. The
// clock is injected so tests drive the state machine deterministically.
//
// Deadline aborts never Report here: a client-imposed deadline says
// nothing about engine health, so it must neither trip nor reset the
// circuit.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may proceed; when it may not, the
// returned duration is the suggested retry delay.
func (b *breaker) Allow() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if wait := b.openedAt.Add(b.cooldown).Sub(b.now()); wait > 0 {
			return false, wait
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, 0
	default: // half-open: one probe in flight at a time
		if b.probing {
			return false, b.cooldown
		}
		b.probing = true
		return true, 0
	}
}

// Report records the result of an allowed request.
func (b *breaker) Report(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
		if success {
			b.state = breakerClosed
			b.fails = 0
		} else {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
		return
	}
	if success {
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerClosed && b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}

// Cancel withdraws an allowed request without judging engine health
// (shed, drain, or client deadline): it releases a half-open probe so
// the circuit cannot wedge, and otherwise changes nothing.
func (b *breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// settle ends a request Allow let through with the verdict its final
// rejection implies, and is the one caller of Report and Cancel: none
// (even if the response then fails to encode) reports success, an
// engine fault or failed build reports failure, and anything else
// (deadline, bad request, shed) only withdraws the request.
func (b *breaker) settle(rj *rejection) {
	if rj != nil && rj.kind != KindEngineFault && rj.kind != KindBuildFailed {
		b.Cancel()
		return
	}
	b.Report(rj == nil)
}

// State returns the current state label for observability endpoints.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
