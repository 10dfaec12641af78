package discovery

import (
	"context"
	"time"
)

// Latent wraps an Engine with a fixed wall-clock delay per budgeted
// execution, modeling the I/O-bound engine of a deployed discovery
// service: in production the executions run on a remote database
// engine, so a discovery spends its time waiting on them, and N
// concurrent discoveries overlap those waits. The serving tier puts it
// behind every served discovery when configured with an execution
// latency (rqp serve -exec-latency).
//
// With a context attached (WithContext), the wait is interruptible: a
// deadline that expires mid-sleep wakes the engine immediately, the
// execution is refused as a zero-cost kill, and the run-level abort is
// exposed through Aborted — so a slow engine can never wedge a
// deadline-bounded request.
type Latent struct {
	Guard // the abort latch over ctx (nil = unbounded) and the wrapped engine
	delay time.Duration
}

// NewLatent wraps the engine; every ExecFull/ExecSpill sleeps delay
// before delegating. A zero or negative delay disables the sleep.
func NewLatent(eng Engine, delay time.Duration) *Latent {
	return &Latent{Guard: Guard{eng: eng}, delay: delay}
}

// WithContext makes the per-execution waits interruptible by the
// context and returns the engine for chaining.
func (l *Latent) WithContext(ctx context.Context) *Latent {
	l.ctx = ctx
	return l
}

// wait sleeps the engine latency; it reports false when the context
// died before the sleep finished (the execution must not run).
func (l *Latent) wait() bool {
	if l.ctx != nil && l.Aborted() != nil {
		return false
	}
	if l.delay <= 0 {
		return true
	}
	if l.ctx == nil {
		time.Sleep(l.delay)
		return true
	}
	if !sleepCtx(l.ctx, l.delay) {
		l.Aborted() // latch the abort
		return false
	}
	return true
}

// ExecFull implements Engine.
func (l *Latent) ExecFull(planID int32, budget float64) (float64, bool) {
	if !l.wait() {
		return 0, false
	}
	return l.eng.ExecFull(planID, budget)
}

// ExecSpill implements Engine.
func (l *Latent) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int) {
	if !l.wait() {
		return 0, false, -1
	}
	return l.eng.ExecSpill(planID, dim, budget)
}

// sleepCtx sleeps d, reporting false if ctx finished first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if err := ctx.Err(); err != nil {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// LatentFallible is Latent for FallibleEngines. Placing the delay
// inside the resilient driver means every retry pays it too — exactly
// what re-running a remote execution costs. With a context attached,
// an interrupted wait surfaces as a typed *AbortError, which the
// resilient driver converts into the run-level abort.
type LatentFallible struct {
	eng   FallibleEngine
	delay time.Duration
	ctx   context.Context
}

// NewLatentFallible wraps the fallible engine; every ExecFull/ExecSpill
// sleeps delay before delegating.
func NewLatentFallible(eng FallibleEngine, delay time.Duration) *LatentFallible {
	return &LatentFallible{eng: eng, delay: delay}
}

// WithContext makes the per-execution waits interruptible by the
// context and returns the engine for chaining.
func (l *LatentFallible) WithContext(ctx context.Context) *LatentFallible {
	l.ctx = ctx
	return l
}

// wait sleeps the engine latency, returning the typed abort when the
// context died first.
func (l *LatentFallible) wait() error {
	if l.ctx != nil {
		if err := l.ctx.Err(); err != nil {
			return &AbortError{Err: err}
		}
	}
	if l.delay <= 0 {
		return nil
	}
	if l.ctx == nil {
		time.Sleep(l.delay)
		return nil
	}
	if !sleepCtx(l.ctx, l.delay) {
		return &AbortError{Err: l.ctx.Err()}
	}
	return nil
}

// ExecFull implements FallibleEngine.
func (l *LatentFallible) ExecFull(planID int32, budget float64) (float64, bool, error) {
	if err := l.wait(); err != nil {
		return 0, false, err
	}
	return l.eng.ExecFull(planID, budget)
}

// ExecSpill implements FallibleEngine.
func (l *LatentFallible) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int, error) {
	if err := l.wait(); err != nil {
		return 0, false, -1, err
	}
	return l.eng.ExecSpill(planID, dim, budget)
}
