package group

import (
	"sync"

	"repro/internal/fifo"
	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// RawTransport is the baseline transport: it relies on the fabric itself
// being reliable and FIFO (the paper's §4.2 assumption, "FIFO message
// sending/receiving between objects"). Use it over a netsim configuration
// that has no drop or duplication. Messages travel bare on the port — the
// directory's codec (if any) applies to them directly. It has no goroutine of
// its own: deliver runs on whichever goroutine the port delivers on.
type RawTransport struct {
	self ident.ObjectID
	port Port
	*sink
}

var _ Transport = (*RawTransport)(nil)

// BindRaw binds obj through the membership service with handler delivery:
// deliver is called under the port's handler contract (transport.Handler):
// it must not block, calls for different senders may overlap, one sender's
// messages arrive in order, and none arrives once Close has returned. A nil
// deliver selects the Recv channel. Any Binder works: the netsim Directory or
// the TCPDirectory.
func BindRaw(dir Binder, obj ident.ObjectID, deliver func(Delivery)) (*RawTransport, error) {
	t := &RawTransport{self: obj, sink: newSink(nil, deliver)}
	port, err := dir.Bind(obj, func(m transport.Message) {
		t.deliver(Delivery{From: m.From, Kind: m.Kind, Action: m.Action, Body: m.Body, Payload: m.Payload})
	}, t.stopped)
	if err != nil {
		return nil, err
	}
	t.port = port
	return t, nil
}

// NewRawTransport is BindRaw delivering on the Recv channel.
func NewRawTransport(dir Binder, obj ident.ObjectID) (*RawTransport, error) {
	return BindRaw(dir, obj, nil)
}

// Self returns the owning object's identifier.
func (t *RawTransport) Self() ident.ObjectID { return t.self }

// Send transmits one message to a peer.
func (t *RawTransport) Send(to ident.ObjectID, kind string, payload any) error {
	return t.SendMessage(transport.Message{To: to, Kind: kind, Payload: payload})
}

// SendTagged transmits one message with an action routing tag in the fabric
// envelope.
func (t *RawTransport) SendTagged(to ident.ObjectID, kind string, action ident.ActionID, payload any) error {
	return t.SendMessage(transport.Message{To: to, Kind: kind, Action: action, Payload: payload})
}

// SendMessage transmits m to m.To as it is: the raw transport adds nothing.
//
//caa:noalloc
func (t *RawTransport) SendMessage(m transport.Message) error {
	return memberErr(t.port.SendMessage(m))
}

// Close stops delivery and returns once no deliver call is in progress.
func (t *RawTransport) Close() { t.port.Close() }

// sink is the delivery end both transports share: the function the port's
// handler calls with each delivery and, when the caller supplied none, the
// fifo.Chan behind the Recv channel, which that function queues into. There
// is one delivery path; the channel API is this adapter, not a second loop.
type sink struct {
	deliver func(Delivery)
	in      *fifo.Pump[Delivery] // Recv adapter; nil with a caller-supplied deliver
	out     <-chan Delivery
	stop    chan struct{} // closed by halt
	once    sync.Once
}

// newSink returns the delivery end; a Recv adapter counts its queue on clk.
func newSink(clk vclock.Clock, deliver func(Delivery)) *sink {
	s := &sink{deliver: deliver, stop: make(chan struct{})}
	if deliver == nil {
		s.in, s.out = fifo.Chan[Delivery](clk)
		s.deliver = s.in.Put
	}
	return s
}

// Recv yields deliveries in per-sender FIFO order, duplicates removed; the
// channel closes when the transport or the network under it shuts down. It
// is nil for a transport bound with its own deliver function.
func (s *sink) Recv() <-chan Delivery { return s.out }

// halt stops R3's ticker.
func (s *sink) halt() { s.once.Do(func() { close(s.stop) }) }

// stopped is the port's stopped hook: the last deliver call has returned,
// whether the transport was closed or the network went away under it, so the
// Recv channel can close behind it.
func (s *sink) stopped() {
	s.halt()
	if s.in != nil {
		s.in.Close()
	}
}
