package group

import (
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// R3Transport ("reliable over unreliable") implements exactly-once FIFO
// delivery on top of a lossy, duplicating netsim configuration: per-peer
// sequence numbers, selective-repeat receive buffering, cumulative
// acknowledgements and periodic retransmission. It is the piece that turns
// the raw network into the channel the resolution algorithm assumes.
//
// Acknowledgements are delayed and piggy-backed, as in TCP: an in-order
// arrival only leaves the peer owed an ack, and the next data envelope
// towards that peer, first send or retransmission, carries it in its Ack
// field. The protocol above is request/response shaped, so most acks ride
// for free. What is still owed when the ticker fires goes out as a
// stand-alone ack; the ticker runs at half the retransmission period, so on
// a loss-free link that ack arrives before the sender's first timeout. An
// arrival that shows the sender is in trouble (a duplicate, a gap, or the
// retransmission that closes a gap) is acked at once.
//
// The transport has no goroutine: the port's goroutine calls handle, which
// runs the sequencing under mu and then deliver, and the ticker is one
// callback on the clock seam that re-arms its own timer.
type R3Transport struct {
	self ident.ObjectID
	*sink

	// mu guards peers and ticker, and port until the constructor has set it:
	// handle may run before Bind returns and needs the port for its acks.
	mu     sync.Mutex
	port   Port
	peers  map[ident.ObjectID]*peerState
	ticker vclock.Handle

	retransmit time.Duration
	clk        vclock.Clock
}

var _ Transport = (*R3Transport)(nil)

type peerState struct {
	// Sender side.
	sendSeq uint64
	ackedTo uint64 // highest cumulative ack processed
	unacked map[uint64]*outMsg
	// Receiver side.
	recvNext uint64 // next expected sequence number (first is 1)
	pending  map[uint64]envelope
	ackOwed  bool // an in-order arrival that no outgoing envelope has acknowledged yet
}

// takeAck returns the cumulative ack for an envelope about to leave for this
// peer and settles the debt.
func (ps *peerState) takeAck() uint64 {
	ps.ackOwed = false
	return ps.recvNext - 1
}

// applyAck processes a cumulative ack from this peer, stand-alone or
// piggy-backed. Acks are cumulative and sequence numbers contiguous: advance
// the watermark and delete exactly the newly covered range. Scanning the
// whole map per ack would be O(window) and lets the window growth feed on
// itself under load.
func (ps *peerState) applyAck(ack uint64) {
	if ack > ps.sendSeq {
		// Off the wire, so not to be trusted: nothing beyond what was sent
		// can have been received. Clamping keeps unacked exactly the range
		// (ackedTo, sendSeq], which tick walks.
		ack = ps.sendSeq
	}
	for seq := ps.ackedTo + 1; seq <= ack; seq++ {
		delete(ps.unacked, seq)
	}
	if ack > ps.ackedTo {
		ps.ackedTo = ack
	}
}

// outMsg tracks one unacknowledged message with its retransmission state.
// Each entry has its own timeout with exponential backoff: without it, the
// ticker re-blasts the whole backlog every period, the duplicates trigger
// re-acks, and the ack backlog delays the very acknowledgements that would
// clear the window — a self-amplifying retransmission storm (congestion
// collapse).
type outMsg struct {
	env      envelope
	lastSent time.Time
	rto      time.Duration
}

func newPeerState() *peerState {
	return &peerState{
		recvNext: 1,
		unacked:  make(map[uint64]*outMsg),
		pending:  make(map[uint64]envelope),
	}
}

// maxRTO caps the per-message retransmission backoff.
const maxRTO = 50 * time.Millisecond

// retransmitWindow is how far past the cumulative ack tick looks for timed-out
// messages. The peer's watermark can only advance past the oldest of them,
// and bounding the walk bounds what a tick costs however far the application
// has run ahead of the acks: an unbounded walk under the lock starves the ack
// processing that would shrink it (TestNoRetransmissionStorm).
const retransmitWindow = 256

// BindR3 binds obj through the membership service (any Binder: the netsim
// Directory or the TCPDirectory) and starts the retransmission ticker.
// deliver is called on the port's goroutine with each message exactly once,
// in per-sender FIFO order, and never again once Close has returned; nil
// selects the Recv channel. retransmit is the retransmission period for
// unacknowledged messages; clk is the seam for the ticker and the RTO
// timestamps, nil meaning the real clock.
func BindR3(dir Binder, obj ident.ObjectID, retransmit time.Duration, clk vclock.Clock, deliver func(Delivery)) (*R3Transport, error) {
	if retransmit <= 0 {
		retransmit = 5 * time.Millisecond
	}
	t := &R3Transport{
		self:       obj,
		sink:       newSink(deliver),
		peers:      make(map[ident.ObjectID]*peerState),
		retransmit: retransmit,
		clk:        vclock.Or(clk),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	port, err := dir.Bind(obj, t.handle, t.stopped)
	if err != nil {
		return nil, err
	}
	t.port = port
	t.ticker = t.clk.AfterFunc(t.period(), t.onTick)
	return t, nil
}

// period is the ticker's: half the retransmission period.
func (t *R3Transport) period() time.Duration { return max(t.retransmit/2, 1) }

// NewR3Transport is BindR3 on the real clock delivering on the Recv channel.
func NewR3Transport(dir Binder, obj ident.ObjectID, retransmit time.Duration) (*R3Transport, error) {
	return BindR3(dir, obj, retransmit, nil, nil)
}

// Self returns the owning object's identifier.
func (t *R3Transport) Self() ident.ObjectID { return t.self }

// Send queues one message for reliable delivery to a peer. The destination
// is validated before any sender state changes, so a failed send leaves no
// phantom retransmission entry behind.
func (t *R3Transport) Send(to ident.ObjectID, kind string, payload any) error {
	return t.SendTagged(to, kind, 0, payload)
}

// SendTagged queues one message for reliable delivery with an action routing
// tag. The tag lives in the reliable envelope itself, so retransmitted copies
// stay routable.
func (t *R3Transport) SendTagged(to ident.ObjectID, kind string, action ident.ActionID, payload any) error {
	if err := t.port.Reachable(to); err != nil {
		return memberErr(err)
	}
	t.mu.Lock()
	ps := t.peer(to)
	ps.sendSeq++
	env := envelope{From: t.self, Kind: kind, Action: action, Payload: payload, Seq: ps.sendSeq, Ack: ps.takeAck()}
	ps.unacked[env.Seq] = &outMsg{env: env, lastSent: t.clk.Now(), rto: t.retransmit}
	t.mu.Unlock()
	return memberErr(t.port.SendTagged(to, wireKind, action, env))
}

// Close stops the ticker and the port, and returns once the port's goroutine
// has exited. A tick already running on another goroutine (real clock) may
// still send; the closed port refuses it.
func (t *R3Transport) Close() {
	t.halt()
	t.mu.Lock()
	t.ticker.Stop()
	t.mu.Unlock()
	t.port.Close()
}

// peer returns (creating) the state for one peer. Caller holds t.mu.
func (t *R3Transport) peer(id ident.ObjectID) *peerState {
	ps, ok := t.peers[id]
	if !ok {
		ps = newPeerState()
		t.peers[id] = ps
	}
	return ps
}

// onTick is the ticker callback: one tick, then the next is armed, unless the
// transport was closed or the port stopped under it.
func (t *R3Transport) onTick() {
	t.tick()
	t.mu.Lock()
	select {
	case <-t.stop:
	default:
		t.ticker.Reset(t.period())
	}
	t.mu.Unlock()
}

// handle is the port's handler: everything R3 does on receipt happens here,
// on the port's goroutine.
func (t *R3Transport) handle(m transport.Message) {
	switch env, ok := m.Payload.(envelope); {
	case !ok:
	case env.IsAck:
		t.handleAck(env)
	default:
		t.handleData(env)
	}
}

// handleData processes one data envelope: applies its piggy-backed ack,
// suppresses duplicates, buffers out-of-order arrivals and delivers whatever
// became deliverable, in sequence. Only an arrival that tells of loss is
// answered on the spot; a plain in-order one waits for a piggyback or the
// ticker. The ack goes out and deliver runs after mu is released.
func (t *R3Transport) handleData(env envelope) {
	t.mu.Lock()
	ps := t.peer(env.From)
	ps.applyAck(env.Ack)
	inOrder := env.Seq == ps.recvNext
	var gap []envelope // what env released from the out-of-order buffer
	switch {
	case env.Seq < ps.recvNext:
		// Duplicate of an already-delivered message: our ack went missing.
	case inOrder:
		ps.recvNext++
		for {
			next, ok := ps.pending[ps.recvNext]
			if !ok {
				break
			}
			delete(ps.pending, ps.recvNext)
			gap = append(gap, next)
			ps.recvNext++
		}
		ps.ackOwed = true
	default:
		ps.pending[env.Seq] = env
	}
	// Having closed a gap, the sender is mid-recovery with timers running on
	// everything behind it: tell it now.
	ackNow := !inOrder || len(gap) > 0
	var ackUpTo uint64
	if ackNow {
		ackUpTo = ps.takeAck()
	}
	t.mu.Unlock()

	if ackNow {
		_ = t.port.Send(env.From, wireKind, envelope{From: t.self, IsAck: true, Ack: ackUpTo})
	}
	if inOrder {
		t.deliver(env.delivery())
	}
	for _, next := range gap {
		t.deliver(next.delivery())
	}
}

func (e envelope) delivery() Delivery {
	return Delivery{From: e.From, Kind: e.Kind, Action: e.Action, Payload: e.Payload}
}

func (t *R3Transport) handleAck(env envelope) {
	t.mu.Lock()
	t.peer(env.From).applyAck(env.Ack)
	t.mu.Unlock()
}

// tick retransmits what has timed out among the oldest retransmitWindow
// messages of each peer, oldest first so that whatever gets through advances
// the peer's cumulative watermark, and sends a stand-alone ack to every peer
// still owed one.
func (t *R3Transport) tick() {
	now := t.clk.Now()
	t.mu.Lock()
	type outgoing struct {
		to  ident.ObjectID
		env envelope
	}
	var batch []outgoing
	for peerID, ps := range t.peers {
		for seq := ps.ackedTo + 1; seq <= min(ps.sendSeq, ps.ackedTo+retransmitWindow); seq++ {
			m := ps.unacked[seq]
			if now.Sub(m.lastSent) < m.rto {
				continue // its own timeout has not expired yet
			}
			m.lastSent = now
			if m.rto *= 2; m.rto > maxRTO {
				m.rto = maxRTO
			}
			m.env.Ack = ps.takeAck()
			batch = append(batch, outgoing{to: peerID, env: m.env})
		}
		if ps.ackOwed {
			batch = append(batch, outgoing{to: peerID, env: envelope{From: t.self, IsAck: true, Ack: ps.takeAck()}})
		}
	}
	t.mu.Unlock()
	for _, o := range batch {
		_ = t.port.SendTagged(o.to, wireKind, o.env.Action, o.env)
	}
}
