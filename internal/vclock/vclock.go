// Package vclock is the repository's clock seam: every time-dependent
// component (heartbeat failure detection, membership polling, retransmission,
// reconnect backoff, run timeouts, body sleeps) reads time and arms timers
// through a Clock instead of the time package, so a whole distributed run can
// execute against a deterministic virtual clock.
//
// Two implementations are provided. Real delegates to package time and is the
// default everywhere — production behaviour is unchanged. Virtual keeps its
// own notion of "now" that only moves when told to: manually (Advance /
// AdvanceToNext) or automatically (StartAuto), where a background goroutine
// jumps straight to the next armed timer as soon as the process has been
// quiescent for a short real-time grace window — the moment every goroutine
// is parked waiting on a timer, waiting out a heartbeat period costs
// microseconds of real time instead of milliseconds of wall clock. That is
// what makes churn workloads (repeated partition/heal/rejoin cycles)
// cheap to run: a wall-clock partition run pays ~45 ms of real heartbeat
// silence; the same scenario on the virtual clock ran in ~3 ms.
//
// The protolint `timeseam` analyzer enforces the seam: packages netsim,
// membership, transport, group and core must not call time.Now / time.After /
// time.Sleep / time.NewTimer / time.NewTicker directly.
package vclock

import (
	"time"
)

// Timer is the seam's view of a one-shot timer. C is the firing channel;
// Stop and Reset follow time.Timer semantics.
type Timer interface {
	// C returns the channel the firing time is delivered on.
	C() <-chan time.Time
	// Stop disarms the timer; it reports whether the timer was still armed.
	Stop() bool
	// Reset re-arms the timer for d from now; it reports whether the timer
	// was still armed.
	Reset(d time.Duration) bool
}

// Ticker is the seam's view of a repeating timer.
type Ticker interface {
	// C returns the tick channel.
	C() <-chan time.Time
	// Stop disarms the ticker.
	Stop()
}

// Clock is the time source every clock-seam package depends on.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// NewTimer arms a one-shot timer firing d from now.
	NewTimer(d time.Duration) Timer
	// After arms a one-shot timer and returns its channel.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// NewTicker arms a repeating timer with period d (d must be > 0).
	NewTicker(d time.Duration) Ticker
}

// Real is the production clock: a stateless wrapper over package time.
type Real struct{}

// System is the shared Real instance; Or(nil) returns it.
var System Clock = Real{}

// Or returns c, or the system Real clock when c is nil — the idiom every
// seam constructor uses to default its clock.
func Or(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{t: time.NewTimer(d)} }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{t: time.NewTicker(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }
