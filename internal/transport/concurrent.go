package transport

import (
	"fmt"
	"sync"

	"repro/internal/ident"
	"repro/internal/netsim"
)

// ConcurrentOptions configure a Concurrent fabric.
type ConcurrentOptions struct {
	// Codec, when non-nil, passes every body it translates through bytes at
	// Send.
	Codec Codec
	// Sink, when non-nil, observes sends, deliveries, drops, duplications.
	// It must be safe for concurrent use.
	Sink Sink
	// Faults, when non-nil, decides each send's fate (drop, duplicate,
	// deliver) before the message enters the network: a partition is a
	// Partitions policy installed here.
	Faults FaultPolicy
}

// Concurrent is the in-process concurrent fabric: objects bound to netsim
// nodes exchange messages through the simulated network, which is the link
// model (latency and per-pair FIFO links) and calls each destination port
// directly. A port queues nothing and owns no goroutine: the network's call
// runs the object's handler. The transport layer supplies the codec boundary,
// the fault policy (partitions included) and observability hooks.
//
// The fabric does not own the network: closing the fabric only stops its
// ports, and the network's owner closes the network.
type Concurrent struct {
	net  *netsim.Network
	opts ConcurrentOptions

	mu     sync.RWMutex
	ports  map[ident.ObjectID]*Port
	objs   map[ident.NodeID]ident.ObjectID
	closed bool
}

var _ Transport = (*Concurrent)(nil)

// NewConcurrent creates a fabric over the given network.
func NewConcurrent(net *netsim.Network, opts ConcurrentOptions) *Concurrent {
	return &Concurrent{
		net:   net,
		opts:  opts,
		ports: make(map[ident.ObjectID]*Port),
		objs:  make(map[ident.NodeID]ident.ObjectID),
	}
}

// Port is one object's attachment to a Concurrent fabric: the endpoint it
// sends from and the receive end the network delivers into.
type Port struct {
	c    *Concurrent
	obj  ident.ObjectID
	node ident.NodeID
	ep   *netsim.Endpoint
	*receiver
}

// Bind attaches obj to the given netsim node and returns its port, whose
// Recv channel yields decoded deliveries in per-sender FIFO order: BindFunc
// with a nil handler.
func (c *Concurrent) Bind(obj ident.ObjectID, node ident.NodeID) (*Port, error) {
	return c.BindFunc(obj, node, nil, nil)
}

// BindFunc attaches obj with handler-based delivery: fn is called once per
// message on the delivering goroutine, under the Handler contract, possibly
// before BindFunc has returned. When the port stops, through Close or because
// the network shut down, stopped (when non-nil) runs once, and fn is never
// called after that. A nil fn selects the Recv channel.
func (c *Concurrent) BindFunc(obj ident.ObjectID, node ident.NodeID, fn Handler, stopped func()) (*Port, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if _, dup := c.ports[obj]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateBind, obj)
	}
	p := &Port{c: c, obj: obj, node: node, receiver: newReceiver(c.net.Clock(), c.opts.Sink, fn, stopped)}
	ep, err := c.net.NodeFunc(node, p.deliver, p.Close)
	if err != nil {
		if fn == nil {
			p.Close() // stop the Recv adapter
		}
		return nil, err
	}
	p.ep = ep
	c.ports[obj] = p
	c.objs[node] = obj
	return p, nil
}

// Node returns the netsim node obj is bound to.
func (c *Concurrent) Node(obj ident.ObjectID) (ident.NodeID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.ports[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownDestination, obj)
	}
	return p.node, nil
}

// Send routes one message through the fabric on behalf of m.From, which must
// be bound. A port's own Send and SendTagged skip the sender lookup.
func (c *Concurrent) Send(m Message) error {
	c.mu.RLock()
	src := c.ports[m.From]
	c.mu.RUnlock()
	if src == nil {
		return fmt.Errorf("%w: %s (sender not bound)", ErrUnknownDestination, m.From)
	}
	return src.send(m)
}

// send is the one send path: resolve the destination under a single read
// lock, pass the body through the codec, draw the fault verdict, and hand
// surviving copies to the network from the port's own endpoint. The message
// travels by value: nothing on the way is boxed.
//
//caa:noalloc
func (p *Port) send(m Message) error {
	c := p.c
	c.mu.RLock()
	closed, dst := c.closed, c.ports[m.To]
	c.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if dst == nil {
		//protolint:allow noalloc unknown-destination failure path, never taken by a bound group's traffic
		return fmt.Errorf("%w: %s", ErrUnknownDestination, m.To)
	}
	if c.opts.Codec != nil {
		var err error
		if m, err = roundTrip(c.opts.Codec, m); err != nil {
			return err
		}
	}
	n := copies(c.opts.Faults, c.opts.Sink, m)
	for i := 0; i < n; i++ {
		err := p.ep.SendMessage(netsim.Message{To: dst.node, Kind: m.Kind, Action: m.Action,
			Header: m.Header, Body: m.Body, Payload: m.Payload})
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops every port. The underlying network is left running (its owner
// closes it).
func (c *Concurrent) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ports := make([]*Port, 0, len(c.ports))
	for _, p := range c.ports {
		ports = append(ports, p)
	}
	c.mu.Unlock()
	for _, p := range ports {
		p.Close()
	}
	return nil
}

// Self returns the owning object's identifier.
func (p *Port) Self() ident.ObjectID { return p.obj }

// Reachable reports whether the fabric can currently route to the named
// object (nil when it can). It is the backend-portable replacement for
// looking the destination node up by hand.
func (p *Port) Reachable(to ident.ObjectID) error {
	_, err := p.c.Node(to)
	return err
}

// Send transmits one message from this port to the named object.
func (p *Port) Send(to ident.ObjectID, kind string, payload any) error {
	return p.SendMessage(Message{To: to, Kind: kind, Payload: payload})
}

// SendTagged transmits one message carrying an action routing tag in the
// envelope, so the receiving side can demultiplex without decoding the
// payload.
func (p *Port) SendTagged(to ident.ObjectID, kind string, action ident.ActionID, payload any) error {
	return p.SendMessage(Message{To: to, Kind: kind, Action: action, Payload: payload})
}

// SendMessage transmits m, stamped as sent from this port, to m.To.
func (p *Port) SendMessage(m Message) error {
	m.From = p.obj
	return p.send(m)
}

// deliver is the network's call for each arrival: it converts the netsim
// message into a transport message, mapping the source node back to its
// object, and hands it to the receive end. The content was settled at Send:
// the body crossed the codec there.
//
//caa:noalloc
func (p *Port) deliver(nm netsim.Message) {
	p.c.mu.RLock()
	from, ok := p.c.objs[nm.From]
	p.c.mu.RUnlock()
	if ok {
		p.receiver.deliver(Message{From: from, To: p.obj, Kind: nm.Kind, Action: nm.Action,
			Header: nm.Header, Body: nm.Body, Payload: nm.Payload})
	}
}
