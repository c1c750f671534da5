// Package group is a clock-seam fixture for the packages fenced in after the
// first four: a heartbeat that re-arms a runtime timer directly is flagged
// exactly as in membership, and the seamed shape is not.
package group

import "time"

// Handle models vclock.Handle.
type Handle interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Clock models the vclock.Clock seam the real package threads through.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Handle
}

type Detector struct {
	clk      Clock
	interval time.Duration
	timer    Handle
	lastSeen time.Time
}

func (d *Detector) beatDirect() {
	d.lastSeen = time.Now()                  // want `call to time.Now in clock-seam package group`
	time.AfterFunc(d.interval, d.beatDirect) // want `call to time.AfterFunc in clock-seam package group`
}

// beat is the compliant shape: a callback on the seam that re-arms its own
// handle; Duration arithmetic and Time methods wait for nothing.
func (d *Detector) beat() {
	d.lastSeen = d.clk.Now()
	_ = d.lastSeen.Add(-2 * d.interval)
	d.timer.Reset(d.interval)
}

func (d *Detector) start() {
	d.timer = d.clk.AfterFunc(0, d.beat)
}
