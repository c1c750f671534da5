// Package vclock is the repository's clock seam: every time-dependent
// component (heartbeat failure detection, membership polling, retransmission,
// run timeouts, body sleeps, link latency) reads time and arms timers through
// a Clock instead of the time package, so a whole distributed run can execute
// against a deterministic virtual clock.
//
// Two implementations are provided. Real delegates to package time and is the
// default everywhere. Virtual keeps its own "now", which moves only when an
// advancer fires the next armed deadline, and an advancer does that only when
// no work is outstanding. Outstanding work is counted, not watched: whatever
// queues, runs or wakes something on a Clock holds a token for it (Hold) and
// gives it back when that work is done or parked (Release). The rule is
// testing/synctest's: time moves only when every participant is durably
// blocked. docs/VCLOCK.md says who holds what.
//
// A Clock has no method that returns a channel. A channel timer hands its
// wake-up to a receiver the clock cannot see, so it cannot carry a token;
// timers are callbacks (AfterFunc), run by the advancer, and a callback that
// wakes a goroutine holds a token on its behalf before it returns.
//
// The protolint `timeseam` analyzer enforces the seam: packages fifo, netsim,
// membership, transport, group and core must not call time.Now / time.After /
// time.Sleep / time.NewTimer / time.NewTicker directly.
package vclock

import "time"

// Label names what a token is held for. Labels are for reading a stuck clock
// (Virtual.String), not for behaviour: every token counts the same.
type Label uint8

// The holders of tokens; docs/VCLOCK.md has the rule for each.
const (
	Pump    Label = iota // a fifo.Pump element, from Put until its handler returned
	Mailbox              // a session mailbox with deliveries, from the put that armed it and handed out its drain until that drain found it empty
	Body                 // a body goroutine that is not parked in a Context wait
	Handler              // a resolution-handler or expulsion goroutine, from go to exit
	Run                  // a run being set up or torn down
	nLabels
)

var labelNames = [nLabels]string{"pump", "mailbox", "body", "handler", "run"}

// Handle is an armed AfterFunc. Stop and Reset follow time.Timer: each reports
// whether the callback was still due. A callback may Reset its own handle to
// run again.
type Handle interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Clock is the time source every clock-seam package depends on.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc runs f once, d from now: on its own goroutine on Real, on
	// the advancer's on Virtual, where callbacks run one at a time in
	// deadline-then-arm order and only when no token is held.
	AfterFunc(d time.Duration, f func()) Handle
	// Sleep blocks the caller for d of this clock's time. The caller holds a
	// token; Sleep lends it to the clock while asleep and the firing gives it
	// back before the caller runs again.
	Sleep(d time.Duration)
	// Hold takes a token for work that is about to be queued, started or
	// woken; Release gives it back when that work has finished or parked.
	// Both are no-ops on Real.
	Hold(Label)
	Release(Label)
}

// Real is the production clock: a stateless wrapper over package time.
type Real struct{}

// System is the shared Real instance; Or(nil) returns it.
var System Clock = Real{}

// Or returns c, or the system Real clock when c is nil: the idiom every seam
// constructor uses to default its clock.
func Or(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Handle { return time.AfterFunc(d, f) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Hold implements Clock.
func (Real) Hold(Label) {}

// Release implements Clock.
func (Real) Release(Label) {}
