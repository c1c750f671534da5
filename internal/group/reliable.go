package group

import (
	"sync"
	"time"

	"repro/internal/fifo"
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
// The transport has no goroutine: whichever goroutine the port delivers on
// calls handle, and the ticker is one callback on the clock seam that re-arms
// its own timer. handle sequences and delivers under mu, so mu is the one
// point where deliveries to the object are serialised: deliver calls never
// overlap, though the port's handler calls do.
type R3Transport struct {
	self ident.ObjectID
	*sink

	// mu guards peers and ticker, and port until the constructor has set it:
	// handle may run before Bind returns and needs the port for its acks. It
	// is held across deliver, and never across a send.
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
	ackedTo uint64             // highest cumulative ack processed
	unacked fifo.Queue[outMsg] // the messages (ackedTo, sendSeq], oldest first, by value
	// Receiver side.
	recvNext uint64 // next expected sequence number (first is 1)
	pending  map[uint64]Delivery
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
// the watermark and drop exactly the newly covered messages from the front
// of the window.
func (ps *peerState) applyAck(ack uint64) {
	if ack > ps.sendSeq {
		// Off the wire, so not to be trusted: nothing beyond what was sent
		// can have been received. Clamping keeps unacked exactly the range
		// (ackedTo, sendSeq], which tick walks.
		ack = ps.sendSeq
	}
	for ; ps.ackedTo < ack; ps.ackedTo++ {
		ps.unacked.Pop()
	}
}

// outMsg tracks one unacknowledged message with its retransmission state;
// its sequence number is its place in the queue. Each entry has its own
// timeout with exponential backoff: without it, the ticker re-blasts the
// whole backlog every period, the duplicates trigger re-acks, and the ack
// backlog delays the very acknowledgements that would clear the window — a
// self-amplifying retransmission storm (congestion collapse).
type outMsg struct {
	kind     string
	action   ident.ActionID
	body     transport.Body
	payload  any
	lastSent time.Time
	rto      time.Duration
}

func newPeerState() *peerState {
	return &peerState{
		recvNext: 1,
		pending:  make(map[uint64]Delivery),
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
// deliver is called with each message exactly once, in per-sender FIFO order,
// one call at a time, and never again once Close has returned; it runs under
// the transport's lock, so it must not block or send. nil selects the Recv
// channel, whose queue counts on clk. retransmit is the retransmission period for
// unacknowledged messages; clk is the seam for the ticker and the RTO
// timestamps, nil meaning the real clock.
func BindR3(dir Binder, obj ident.ObjectID, retransmit time.Duration, clk vclock.Clock, deliver func(Delivery)) (*R3Transport, error) {
	if retransmit <= 0 {
		retransmit = 5 * time.Millisecond
	}
	t := &R3Transport{
		self:       obj,
		sink:       newSink(clk, deliver),
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

// Send queues one message for reliable delivery to a peer.
func (t *R3Transport) Send(to ident.ObjectID, kind string, payload any) error {
	return t.SendMessage(transport.Message{To: to, Kind: kind, Payload: payload})
}

// SendTagged queues one message for reliable delivery with an action routing
// tag.
func (t *R3Transport) SendTagged(to ident.ObjectID, kind string, action ident.ActionID, payload any) error {
	return t.SendMessage(transport.Message{To: to, Kind: kind, Action: action, Payload: payload})
}

// SendMessage queues m for reliable delivery to m.To. The destination is
// validated before any sender state changes, so a failed send leaves no
// phantom retransmission entry behind. The envelope is m itself, by value:
// its Header carries m's kind and the sequencing, and its Action stays the
// routing tag, so retransmitted copies stay routable.
//
//caa:noalloc
func (t *R3Transport) SendMessage(m transport.Message) error {
	if err := t.port.Reachable(m.To); err != nil {
		return memberErr(err)
	}
	t.mu.Lock()
	ps := t.peer(m.To)
	ps.sendSeq++
	ps.unacked.Push(outMsg{kind: m.Kind, action: m.Action, body: m.Body, payload: m.Payload,
		lastSent: t.clk.Now(), rto: t.retransmit})
	m.Header = transport.Header{Kind: m.Kind, Seq: ps.sendSeq, Ack: ps.takeAck()}
	t.mu.Unlock()
	m.Kind = wireKind
	return memberErr(t.port.SendMessage(m))
}

// Close stops the ticker and the port, and returns once no deliver call is in
// progress. A tick already running on another goroutine (real clock) may
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
// on the delivering goroutine.
func (t *R3Transport) handle(m transport.Message) {
	switch {
	case m.Kind != wireKind:
	case m.Header.IsAck:
		t.handleAck(m.From, m.Header.Ack)
	default:
		t.handleData(m)
	}
}

// handleData processes one data envelope: applies its piggy-backed ack,
// suppresses duplicates, buffers out-of-order arrivals and delivers whatever
// became deliverable, in sequence, under mu. Only an arrival that tells of
// loss is answered on the spot, once mu is released; a plain in-order one
// waits for a piggyback or the ticker.
//
//caa:noalloc
func (t *R3Transport) handleData(m transport.Message) {
	d := Delivery{From: m.From, Kind: m.Header.Kind, Action: m.Action, Body: m.Body, Payload: m.Payload}
	seq := m.Header.Seq
	t.mu.Lock()
	ps := t.peer(m.From)
	ps.applyAck(m.Header.Ack)
	inOrder := seq == ps.recvNext
	released := false // m closed a gap: the out-of-order buffer gave something up
	switch {
	case seq < ps.recvNext:
		// Duplicate of an already-delivered message: our ack went missing.
	case inOrder:
		t.deliver(d)
		for ps.recvNext++; ; ps.recvNext++ {
			next, ok := ps.pending[ps.recvNext]
			if !ok {
				break
			}
			delete(ps.pending, ps.recvNext)
			t.deliver(next)
			released = true
		}
		ps.ackOwed = true
	default:
		ps.pending[seq] = d // the one path that may allocate, and only after a loss
	}
	// Having closed a gap, the sender is mid-recovery with timers running on
	// everything behind it: tell it now.
	ackNow := !inOrder || released
	var ackUpTo uint64
	if ackNow {
		ackUpTo = ps.takeAck()
	}
	t.mu.Unlock()

	if ackNow {
		_ = t.port.SendMessage(standaloneAck(m.From, ackUpTo))
	}
}

// standaloneAck is the envelope that acknowledges everything up to ack to
// the named peer and carries nothing else.
func standaloneAck(to ident.ObjectID, ack uint64) transport.Message {
	return transport.Message{To: to, Kind: wireKind, Header: transport.Header{IsAck: true, Ack: ack}}
}

func (t *R3Transport) handleAck(from ident.ObjectID, ack uint64) {
	t.mu.Lock()
	t.peer(from).applyAck(ack)
	t.mu.Unlock()
}

// tick retransmits what has timed out among the oldest retransmitWindow
// messages of each peer, oldest first so that whatever gets through advances
// the peer's cumulative watermark, and sends a stand-alone ack to every peer
// still owed one.
func (t *R3Transport) tick() {
	now := t.clk.Now()
	t.mu.Lock()
	var batch []transport.Message
	for peerID, ps := range t.peers {
		for i := 0; i < min(ps.unacked.Len(), retransmitWindow); i++ {
			m := ps.unacked.At(i)
			if now.Sub(m.lastSent) < m.rto {
				continue // its own timeout has not expired yet
			}
			m.lastSent = now
			if m.rto *= 2; m.rto > maxRTO {
				m.rto = maxRTO
			}
			batch = append(batch, transport.Message{To: peerID, Kind: wireKind, Action: m.action,
				Header:  transport.Header{Kind: m.kind, Seq: ps.ackedTo + 1 + uint64(i), Ack: ps.takeAck()},
				Body:    m.body,
				Payload: m.payload})
		}
		if ps.ackOwed {
			batch = append(batch, standaloneAck(peerID, ps.takeAck()))
		}
	}
	t.mu.Unlock()
	for _, m := range batch {
		_ = t.port.SendMessage(m)
	}
}
