package group

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/vclock"
)

// Detector is a heartbeat failure detector, the missing half of the "group
// membership service" the paper's §4.5 implementation sketch calls for:
// every member periodically multicasts a heartbeat and suspects peers whose
// heartbeats stop arriving. A CA-action manager can consult it to decide
// whether a belated participant is merely slow or gone for good (the case
// that motivates the abort-nested strategy of Figure 1(b)).
//
// The detector only sends: whoever owns the member's receive stream (a
// participant's mailbox drain, a transport's deliver function) feeds heartbeat
// arrivals in through Observe, so membership traffic shares the member's
// fabric attachment, and with it its partition fate, instead of needing a
// second transport per object. It has no goroutine: the beat is a callback on
// the clock seam that re-arms itself.
type Detector struct {
	self     ident.ObjectID
	send     func(to ident.ObjectID, kind string, payload any) error
	peers    []ident.ObjectID
	interval time.Duration
	timeout  time.Duration
	clk      vclock.Clock

	mu       sync.Mutex
	lastSeen map[ident.ObjectID]time.Time
	timer    vclock.Handle // nil once stopped
}

// KindHeartbeat is the wire kind of detector messages.
const KindHeartbeat = "group.heartbeat"

// NewFedDetector creates a detector for the given peers and arms its first
// beat for the current instant. self's heartbeats go out through send every
// interval; a peer is suspected when Observe has not been called for it for
// timeout. clk is the clock seam for both the beat and the staleness cutoffs;
// nil means the real clock.
func NewFedDetector(self ident.ObjectID, send func(to ident.ObjectID, kind string, payload any) error,
	peers []ident.ObjectID, interval, timeout time.Duration, clk vclock.Clock) *Detector {
	clk = vclock.Or(clk)
	d := &Detector{
		self:     self,
		send:     send,
		peers:    append([]ident.ObjectID{}, peers...),
		interval: interval,
		timeout:  timeout,
		clk:      clk,
		lastSeen: make(map[ident.ObjectID]time.Time, len(peers)),
	}
	start := clk.Now()
	for _, p := range d.peers {
		if p != self {
			d.lastSeen[p] = start // everyone starts alive, for one timeout
		}
	}
	d.mu.Lock()
	d.timer = clk.AfterFunc(0, d.beat)
	d.mu.Unlock()
	return d
}

// Observe records a heartbeat from p received out of band (fed mode). Unknown
// senders are ignored: the detector tracks the declared peer set only.
func (d *Detector) Observe(p ident.ObjectID) {
	d.mu.Lock()
	if _, known := d.lastSeen[p]; known {
		d.lastSeen[p] = d.clk.Now()
	}
	d.mu.Unlock()
}

// Stop disarms the beat. Idempotent; a beat already running on another
// goroutine (real clock) finishes its sends and does not re-arm.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	d.mu.Unlock()
}

// Suspects returns the peers whose heartbeats have stopped, sorted.
func (d *Detector) Suspects() []ident.ObjectID {
	cutoff := d.clk.Now().Add(-d.timeout)
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []ident.ObjectID
	for p, seen := range d.lastSeen {
		if seen.Before(cutoff) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Suspected reports whether one peer is currently suspected.
func (d *Detector) Suspected(p ident.ObjectID) bool {
	cutoff := d.clk.Now().Add(-d.timeout)
	d.mu.Lock()
	defer d.mu.Unlock()
	seen, ok := d.lastSeen[p]
	return ok && seen.Before(cutoff)
}

// beat is the timer callback: one heartbeat to every peer, then the next beat
// is armed.
func (d *Detector) beat() {
	for _, p := range d.peers {
		if p == d.self {
			continue
		}
		_ = d.send(p, KindHeartbeat, nil)
	}
	d.mu.Lock()
	if d.timer != nil {
		d.timer.Reset(d.interval)
	}
	d.mu.Unlock()
}
