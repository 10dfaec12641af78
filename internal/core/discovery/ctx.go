package discovery

import (
	"context"
	"errors"
	"sync"
)

// AbortError reports a discovery run cut short as a whole — by a
// context deadline, a client cancellation, or a server drain — rather
// than by a single failed execution. It wraps the cause, so
// errors.Is(err, context.DeadlineExceeded) and friends work through it.
// Runs that abort still return their partial Outcome: every cost unit
// consumed before the abort stays on the ledger.
type AbortError struct {
	// Err is the underlying cause (typically a context error).
	Err error
}

// Error implements error.
func (e *AbortError) Error() string { return "discovery: run aborted: " + e.Err.Error() }

// Unwrap exposes the cause for errors.Is/As chains.
func (e *AbortError) Unwrap() error { return e.Err }

// AbortCause classifies err as a run-level abort: it returns the
// *AbortError if err is (or wraps) one, promotes bare context errors to
// aborts, and returns nil for everything else.
func AbortCause(err error) *AbortError {
	if err == nil {
		return nil
	}
	var a *AbortError
	if errors.As(err, &a) {
		return a
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &AbortError{Err: err}
	}
	return nil
}

// Aborter is implemented by engines that can abort a run as a whole
// (context-guarded engines and the resilient driver). The algorithms
// poll it before every budgeted execution, so an expired deadline stops
// the run at the next execution boundary instead of grinding through
// the remaining contours with no-op kills.
type Aborter interface {
	// Aborted returns the sticky run-level abort, or nil while the run
	// may continue.
	Aborted() error
}

// AbortOf returns the engine's run-level abort if the engine exposes
// one (nil otherwise). Engines without context support never abort, so
// the algorithms behave exactly as before when driven by plain engines.
func AbortOf(eng Engine) error {
	if a, ok := eng.(Aborter); ok {
		return a.Aborted()
	}
	return nil
}

// Guard enforces a context on an infallible Engine: once the context is
// done, executions are refused without touching the engine (reported as
// zero-cost kills) and Aborted returns the typed abort. The algorithms'
// pre-execution abort polls mean a guarded run stops cleanly with a
// partial outcome; the guard's own check only matters for the race
// where the context dies between the poll and the execution. A nil
// context never aborts (Latent embeds a Guard it may leave unbounded).
type Guard struct {
	ctx context.Context
	eng Engine

	mu    sync.Mutex
	abort error
}

// NewGuard wraps the engine with the context.
func NewGuard(ctx context.Context, eng Engine) *Guard {
	return &Guard{ctx: ctx, eng: eng}
}

// Aborted implements Aborter, live-checking the context so aborts are
// visible the moment the deadline expires, and deferring to the wrapped
// engine's own abort state (e.g. a Latent whose sleep was interrupted).
func (g *Guard) Aborted() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.abort == nil && g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			g.abort = &AbortError{Err: err}
		}
	}
	if g.abort != nil {
		return g.abort
	}
	return AbortOf(g.eng)
}

// ExecFull implements Engine; once aborted it reports a zero-cost kill.
func (g *Guard) ExecFull(planID int32, budget float64) (float64, bool) {
	if g.Aborted() != nil {
		return 0, false
	}
	return g.eng.ExecFull(planID, budget)
}

// ExecSpill implements Engine; once aborted it reports a zero-cost,
// learning-free kill.
func (g *Guard) ExecSpill(planID int32, dim int, budget float64) (float64, bool, int) {
	if g.Aborted() != nil {
		return 0, false, -1
	}
	return g.eng.ExecSpill(planID, dim, budget)
}

var _ Engine = (*Guard)(nil)
