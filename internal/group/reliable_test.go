package group

import (
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The ack rule's tests run on a virtual clock that moves only when the test
// says so: a tick, a timeout or their absence is then a fact of the test, not
// of how the scheduler felt.

const testRetransmit = 10 * time.Millisecond

// recordingPort is a Port that goes nowhere: it records what the transport
// sends, so a test can drive handleData / handleAck / tick by hand and read
// the envelopes that left.
type recordingPort struct {
	self ident.ObjectID
	sent []transport.Message
	got  []Delivery // what the transport's deliver was called with
}

// handled feeds one data envelope to the transport and returns what that
// delivered.
func (p *recordingPort) handled(tr *R3Transport, env transport.Message) []Delivery {
	p.got = nil
	tr.handleData(env)
	return p.got
}

func (p *recordingPort) Self() ident.ObjectID { return p.self }
func (p *recordingPort) SendMessage(m transport.Message) error {
	p.sent = append(p.sent, m)
	return nil
}
func (p *recordingPort) Reachable(ident.ObjectID) error { return nil }
func (p *recordingPort) Close()                         {}

// take returns and forgets what was sent since the last call.
func (p *recordingPort) take() []transport.Message {
	out := p.sent
	p.sent = nil
	return out
}

// newLooplessR3 builds object 1's transport with no protocol loop behind it:
// the test is the loop.
func newLooplessR3() (*R3Transport, *recordingPort, *vclock.Virtual) {
	clk := vclock.NewVirtual()
	port := &recordingPort{self: 1}
	return &R3Transport{
		self:       1,
		sink:       newSink(nil, func(d Delivery) { port.got = append(port.got, d) }),
		port:       port,
		peers:      make(map[ident.ObjectID]*peerState),
		retransmit: testRetransmit,
		clk:        clk,
	}, port, clk
}

// data is an envelope from peer 2.
func data(seq, ack uint64) transport.Message {
	return transport.Message{From: 2, Kind: wireKind, Header: transport.Header{Kind: "m", Seq: seq, Ack: ack}, Payload: int(seq)}
}

// envelope is what a test expects of a sent envelope's header.
type envelope = transport.Header

func wantSent(t *testing.T, got []transport.Message, want ...envelope) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sent %d envelopes %+v, want %d %+v", len(got), got, len(want), want)
	}
	for i := range want {
		g, w := got[i].Header, want[i]
		if got[i].Kind != wireKind {
			t.Errorf("envelope %d has kind %q, want %q", i, got[i].Kind, wireKind)
		}
		if g.IsAck != w.IsAck || g.Ack != w.Ack || g.Seq != w.Seq {
			t.Errorf("envelope %d = {IsAck:%v Ack:%d Seq:%d}, want {IsAck:%v Ack:%d Seq:%d}",
				i, g.IsAck, g.Ack, g.Seq, w.IsAck, w.Ack, w.Seq)
		}
	}
}

func TestR3InOrderArrivalWaitsForTick(t *testing.T) {
	tr, port, _ := newLooplessR3()
	for seq := uint64(1); seq <= 3; seq++ {
		if got := port.handled(tr, data(seq, 0)); len(got) != 1 || got[0].Payload != int(seq) {
			t.Fatalf("seq %d delivered %+v", seq, got)
		}
	}
	wantSent(t, port.take()) // nothing: the three arrivals only ran up a debt
	tr.tick()
	wantSent(t, port.take(), envelope{IsAck: true, Ack: 3})
	tr.tick()
	wantSent(t, port.take()) // the debt is settled, a second tick has nothing to say
}

func TestR3PiggybackSettlesDebt(t *testing.T) {
	tr, port, _ := newLooplessR3()
	tr.handleData(data(1, 0))
	tr.handleData(data(2, 0))
	if err := tr.Send(2, "reply", "r"); err != nil {
		t.Fatal(err)
	}
	wantSent(t, port.take(), envelope{Seq: 1, Ack: 2})
	tr.tick() // no stand-alone ack, and the reply is not due for retransmission
	wantSent(t, port.take())
}

func TestR3GapAndDuplicateAckAtOnce(t *testing.T) {
	tr, port, _ := newLooplessR3()

	// Gap: 2 before 1 is buffered and answered with what we do have.
	if got := port.handled(tr, data(2, 0)); len(got) != 0 {
		t.Fatalf("out-of-order arrival delivered %+v", got)
	}
	wantSent(t, port.take(), envelope{IsAck: true, Ack: 0})

	// The arrival that closes the gap releases both and is acked at once too.
	if got := port.handled(tr, data(1, 0)); len(got) != 2 || got[0].Payload != 1 || got[1].Payload != 2 {
		t.Fatalf("gap fill delivered %+v", got)
	}
	wantSent(t, port.take(), envelope{IsAck: true, Ack: 2})

	// Duplicate: the sender did not see our ack, so repeat it now.
	if got := port.handled(tr, data(1, 0)); len(got) != 0 {
		t.Fatalf("duplicate delivered %+v", got)
	}
	wantSent(t, port.take(), envelope{IsAck: true, Ack: 2})

	tr.tick()
	wantSent(t, port.take()) // every immediate ack settled the debt as well
}

func TestR3RetransmissionCarriesCurrentAck(t *testing.T) {
	tr, port, clk := newLooplessR3()
	if err := tr.Send(2, "m", "first"); err != nil {
		t.Fatal(err)
	}
	wantSent(t, port.take(), envelope{Seq: 1, Ack: 0})

	tr.handleData(data(1, 0))
	tr.handleData(data(2, 0))
	clk.Advance(testRetransmit)
	tr.tick()
	// One envelope, not two: the retransmission carries the ack for what
	// arrived since the first send, and with that the debt is settled.
	wantSent(t, port.take(), envelope{Seq: 1, Ack: 2})

	// The backoff doubled: a tick one period later retransmits nothing.
	clk.Advance(testRetransmit)
	tr.tick()
	wantSent(t, port.take())
}

func TestR3RetransmitsOldestFirst(t *testing.T) {
	tr, port, clk := newLooplessR3()
	const over = 20 // messages beyond the retransmission window
	for i := 0; i < retransmitWindow+over; i++ {
		if err := tr.Send(2, "m", i); err != nil {
			t.Fatal(err)
		}
	}
	port.take()
	clk.Advance(testRetransmit)
	tr.tick()
	wantSeqs(t, port.take(), 1, retransmitWindow)

	// The window slides with the watermark: what an ack lets in is overdue
	// already and goes out on the next tick, the rest keeps its backoff.
	tr.handleAck(2, over/2)
	tr.tick()
	wantSeqs(t, port.take(), retransmitWindow+1, retransmitWindow+over/2)
}

// wantSeqs checks that got is the data envelopes first..last, in that order.
func wantSeqs(t *testing.T, got []transport.Message, first, last uint64) {
	t.Helper()
	if uint64(len(got)) != last-first+1 {
		t.Fatalf("retransmitted %d envelopes, want seq %d..%d", len(got), first, last)
	}
	for i, env := range got {
		if env.Header.Seq != first+uint64(i) {
			t.Fatalf("retransmission %d has seq %d, want %d: not in sequence order", i, env.Header.Seq, first+uint64(i))
		}
	}
}

func TestR3PiggybackedAckApplied(t *testing.T) {
	tr, _, _ := newLooplessR3()
	for i := 0; i < 3; i++ {
		if err := tr.Send(2, "m", i); err != nil {
			t.Fatal(err)
		}
	}
	ps := tr.peers[2]

	tr.handleData(data(1, 2)) // a data envelope's Ack counts exactly as an ack's does
	if ps.ackedTo != 2 || ps.unacked.Len() != 1 {
		t.Fatalf("after piggy-backed ack 2: ackedTo=%d unacked=%d, want 2 and 1", ps.ackedTo, ps.unacked.Len())
	}
	tr.handleData(data(2, 1)) // stale: below the watermark
	if ps.ackedTo != 2 || ps.unacked.Len() != 1 {
		t.Fatalf("after stale piggy-backed ack 1: ackedTo=%d unacked=%d, want 2 and 1", ps.ackedTo, ps.unacked.Len())
	}
	tr.handleAck(2, 99) // beyond anything sent
	if ps.ackedTo != 3 || ps.unacked.Len() != 0 {
		t.Fatalf("after ack 99: ackedTo=%d unacked=%d, want 3 and 0", ps.ackedTo, ps.unacked.Len())
	}
	if err := tr.Send(2, "m", "next"); err != nil {
		t.Fatal(err)
	}
	if tracked := ps.ackedTo == 3 && ps.unacked.Len() == 1; !tracked || ps.sendSeq != 4 {
		t.Fatalf("send after an over-reaching ack: seq=%d tracked=%v, want 4 and true", ps.sendSeq, tracked)
	}
}

// newVirtualPair runs two real transports, tickers and all, over a loss-free
// instant netsim, everything on a clock only the test advances: the network
// counts its queued messages on it too, so Advance returns when a tick and
// all it sent have been handled.
func newVirtualPair(t *testing.T) (*netsim.Network, *vclock.Virtual, *R3Transport, *R3Transport) {
	t.Helper()
	clk := vclock.NewVirtual()
	net := netsim.New(netsim.Config{Clock: clk})
	dir := NewDirectory(net)
	a, err := BindR3(dir, 1, testRetransmit, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BindR3(dir, 2, testRetransmit, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
		net.Close()
	})
	return net, clk, a, b
}

func recvWithin(t *testing.T, tr *R3Transport) Delivery {
	t.Helper()
	select {
	case d := <-tr.Recv():
		return d
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no delivery", tr.Self())
		return Delivery{}
	}
}

// wantAcked checks that tr has nothing unacknowledged towards peer.
func wantAcked(t *testing.T, tr *R3Transport, peer ident.ObjectID) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n := tr.peer(peer).unacked.Len(); n != 0 {
		t.Fatalf("%s still has %d messages to %s unacknowledged", tr.Self(), n, peer)
	}
}

func TestR3RoundTripsPiggybackEveryAck(t *testing.T) {
	net, clk, a, b := newVirtualPair(t)
	const k = 200
	for i := 0; i < k; i++ {
		if err := a.Send(2, "req", i); err != nil {
			t.Fatal(err)
		}
		if d := recvWithin(t, b); d.Payload != i {
			t.Fatalf("request %d arrived as %v", i, d.Payload)
		}
		if err := b.Send(1, "resp", i); err != nil {
			t.Fatal(err)
		}
		if d := recvWithin(t, a); d.Payload != i {
			t.Fatalf("response %d arrived as %v", i, d.Payload)
		}
	}
	// No time has passed, so no ticker fired: every ack so far rode on the
	// next message the other way.
	if sent := net.Stats().Sent; sent != 2*k {
		t.Fatalf("%d round trips cost %d network sends, want exactly %d", k, sent, 2*k)
	}
	// The last response is the one arrival nothing answered. One tick, half
	// a retransmission period, acknowledges it; no timeout can have expired,
	// so none of the sends is a retransmission.
	clk.Advance(testRetransmit / 2)
	wantAcked(t, b, 1)
	wantAcked(t, a, 2)
	if sent := net.Stats().Sent; sent > 2*k+2 {
		t.Fatalf("%d round trips and a tick cost %d network sends, want at most %d", k, sent, 2*k+2)
	}
}

func TestR3OneWayStreamAckedByOneTick(t *testing.T) {
	net, clk, src, dst := newVirtualPair(t)
	const k = 200
	for i := 0; i < k; i++ {
		if err := src.Send(2, "m", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if d := recvWithin(t, dst); d.Payload != i {
			t.Fatalf("message %d arrived as %v", i, d.Payload)
		}
	}
	if sent := net.Stats().Sent; sent != k {
		t.Fatalf("%d one-way messages cost %d network sends before any tick, want %d", k, sent, k)
	}
	clk.Advance(testRetransmit / 2)
	wantAcked(t, src, 2)
	if sent := net.Stats().Sent; sent != k+1 {
		t.Fatalf("%d one-way messages and a tick cost %d network sends, want %d", k, sent, k+1)
	}
}
