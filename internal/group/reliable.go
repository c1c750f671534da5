package group

import (
	"sync"
	"time"

	"repro/internal/ident"
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
// for free. What is still owed when the loop's ticker fires goes out as a
// stand-alone ack; the ticker runs at half the retransmission period, so on
// a loss-free link that ack arrives before the sender's first timeout. An
// arrival that shows the sender is in trouble (a duplicate, a gap, or the
// retransmission that closes a gap) is acked at once.
type R3Transport struct {
	self ident.ObjectID
	port Port

	mu    sync.Mutex
	peers map[ident.ObjectID]*peerState

	retransmit time.Duration
	clk        vclock.Clock
	out        chan Delivery
	stop       chan struct{}
	done       chan struct{}
	once       sync.Once
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

// NewR3Transport binds obj through the membership service and starts its
// protocol loop. retransmit is the retransmission period for unacknowledged
// messages. Any Binder works: the netsim Directory or the TCPDirectory.
func NewR3Transport(dir Binder, obj ident.ObjectID, retransmit time.Duration) (*R3Transport, error) {
	return NewR3TransportClock(dir, obj, retransmit, nil)
}

// NewR3TransportClock is NewR3Transport with an explicit clock seam for the
// retransmission ticker and RTO timestamps; nil means the real clock.
func NewR3TransportClock(dir Binder, obj ident.ObjectID, retransmit time.Duration, clk vclock.Clock) (*R3Transport, error) {
	port, err := dir.Bind(obj)
	if err != nil {
		return nil, err
	}
	if retransmit <= 0 {
		retransmit = 5 * time.Millisecond
	}
	t := &R3Transport{
		self:       obj,
		port:       port,
		peers:      make(map[ident.ObjectID]*peerState),
		retransmit: retransmit,
		clk:        vclock.Or(clk),
		out:        make(chan Delivery),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	// Armed here and not in the loop, so that a virtual clock advanced right
	// after construction cannot slip past a ticker that does not exist yet.
	go t.loop(t.clk.NewTicker(max(retransmit/2, 1)))
	return t, nil
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

// Recv yields deliveries in per-sender FIFO order with duplicates removed.
func (t *R3Transport) Recv() <-chan Delivery { return t.out }

// Close stops the protocol loop.
func (t *R3Transport) Close() {
	t.once.Do(func() {
		close(t.stop)
		<-t.done
		t.port.Close()
	})
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

func (t *R3Transport) loop(ticker vclock.Ticker) {
	defer close(t.done)
	defer close(t.out)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C():
			t.tick()
		case m, ok := <-t.port.Recv():
			if !ok {
				return
			}
			env, ok := m.Payload.(envelope)
			if !ok {
				continue
			}
			if env.IsAck {
				t.handleAck(env)
				continue
			}
			for _, d := range t.handleData(env) {
				select {
				case t.out <- d:
				case <-t.stop:
					return
				}
			}
		}
	}
}

// handleData processes one data envelope: applies its piggy-backed ack,
// suppresses duplicates, buffers out-of-order arrivals and returns any
// now-deliverable messages. Only an arrival that tells of loss is answered
// on the spot; a plain in-order one waits for a piggyback or the ticker.
func (t *R3Transport) handleData(env envelope) []Delivery {
	t.mu.Lock()
	ps := t.peer(env.From)
	ps.applyAck(env.Ack)
	var ready []Delivery
	ackNow := true
	switch {
	case env.Seq < ps.recvNext:
		// Duplicate of an already-delivered message: our ack went missing.
	case env.Seq == ps.recvNext:
		ready = append(ready, Delivery{From: env.From, Kind: env.Kind, Action: env.Action, Payload: env.Payload})
		ps.recvNext++
		for {
			next, ok := ps.pending[ps.recvNext]
			if !ok {
				break
			}
			delete(ps.pending, ps.recvNext)
			ready = append(ready, Delivery{From: next.From, Kind: next.Kind, Action: next.Action, Payload: next.Payload})
			ps.recvNext++
		}
		// Having closed a gap, the sender is mid-recovery with timers
		// running on everything behind it: tell it now.
		ackNow = len(ready) > 1
		ps.ackOwed = true
	default:
		ps.pending[env.Seq] = env
	}
	if !ackNow {
		t.mu.Unlock()
		return ready
	}
	ackUpTo := ps.takeAck()
	t.mu.Unlock()

	_ = t.port.Send(env.From, wireKind, envelope{From: t.self, IsAck: true, Ack: ackUpTo})
	return ready
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
