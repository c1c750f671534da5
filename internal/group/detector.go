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
// A detector created with NewDetector owns its transport: heartbeats do not
// interleave with application messages. One created with NewFedDetector only
// sends; the owner of the receive stream feeds arrivals in through Observe.
type Detector struct {
	self     ident.ObjectID
	send     func(to ident.ObjectID, kind string, payload any) error
	recv     <-chan Delivery // nil when receptions arrive via Observe
	peers    []ident.ObjectID
	interval time.Duration
	timeout  time.Duration
	clk      vclock.Clock

	mu       sync.Mutex
	lastSeen map[ident.ObjectID]time.Time

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// KindHeartbeat is the wire kind of detector messages.
const KindHeartbeat = "group.heartbeat"

// NewDetector creates a detector for the given peers. interval is the
// heartbeat period; a peer is suspected when no heartbeat arrived for
// timeout. clk is the clock seam for both the beat ticker and staleness
// cutoffs; nil means the real clock.
func NewDetector(t Transport, peers []ident.ObjectID, interval, timeout time.Duration, clk vclock.Clock) *Detector {
	return startDetector(t.Self(), t.Send, t.Recv(), peers, interval, timeout, clk)
}

// NewFedDetector is NewDetector for a member whose receive stream is owned by
// somebody else (e.g. a participant's engine loop): the detector multicasts
// self's heartbeats through send, and heartbeat receptions must be fed in by
// the stream's owner via Observe. This lets membership traffic share the
// participant's fabric attachment — and therefore its partition fate —
// instead of requiring a second transport per object.
func NewFedDetector(self ident.ObjectID, send func(to ident.ObjectID, kind string, payload any) error,
	peers []ident.ObjectID, interval, timeout time.Duration, clk vclock.Clock) *Detector {
	return startDetector(self, send, nil, peers, interval, timeout, clk)
}

func startDetector(self ident.ObjectID, send func(to ident.ObjectID, kind string, payload any) error,
	recv <-chan Delivery, peers []ident.ObjectID, interval, timeout time.Duration, clk vclock.Clock) *Detector {
	clk = vclock.Or(clk)
	d := &Detector{
		self:     self,
		send:     send,
		recv:     recv,
		peers:    append([]ident.ObjectID{}, peers...),
		interval: interval,
		timeout:  timeout,
		clk:      clk,
		lastSeen: make(map[ident.ObjectID]time.Time, len(peers)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	start := clk.Now()
	for _, p := range d.peers {
		if p != self {
			d.lastSeen[p] = start // grace period: everyone starts alive
		}
	}
	go d.loop()
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

// Stop terminates the detector's goroutine.
func (d *Detector) Stop() {
	d.once.Do(func() {
		close(d.stop)
		<-d.done
	})
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

// Alive returns the peers currently considered alive, sorted.
func (d *Detector) Alive() []ident.ObjectID {
	cutoff := d.clk.Now().Add(-d.timeout)
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []ident.ObjectID
	for p, seen := range d.lastSeen {
		if !seen.Before(cutoff) {
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

func (d *Detector) loop() {
	defer close(d.done)
	ticker := d.clk.NewTicker(d.interval)
	defer ticker.Stop()
	d.beat()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C():
			d.beat()
		case msg, ok := <-d.recv: // a nil channel (fed mode) never fires
			if !ok {
				return
			}
			if msg.Kind != KindHeartbeat {
				continue
			}
			d.Observe(msg.From)
		}
	}
}

func (d *Detector) beat() {
	for _, p := range d.peers {
		if p == d.self {
			continue
		}
		_ = d.send(p, KindHeartbeat, nil)
	}
}
