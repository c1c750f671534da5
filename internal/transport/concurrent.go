package transport

import (
	"fmt"
	"sync"

	"repro/internal/ident"
	"repro/internal/netsim"
)

// ConcurrentOptions configure a Concurrent fabric.
type ConcurrentOptions struct {
	// Codec, when non-nil, encodes payloads at Send and decodes them at
	// delivery.
	Codec Codec
	// Sink, when non-nil, observes sends, deliveries, drops, duplications.
	// It must be safe for concurrent use.
	Sink Sink
	// Faults, when non-nil, decides a drop/duplicate verdict per send,
	// keyed by per-pair sequence numbers (see SeededFaults) so verdicts are
	// reproducible regardless of goroutine interleaving.
	Faults FaultPolicy
}

// Concurrent is the goroutine-per-endpoint fabric: objects bound to netsim
// nodes exchange messages through the simulated network, inheriting its
// latency models and per-pair FIFO links, while the transport layer supplies
// the codec boundary, fault injection (with lock-striped per-pair state, so
// high-N runs do not serialise on a single mutex) and observability hooks.
// Isolate/Heal expose netsim's partition model at the object level.
//
// The fabric does not own the network: several Concurrent fabrics may share
// one netsim.Network (e.g. successive recovery attempts on one System), and
// closing the fabric only stops its pumps.
type Concurrent struct {
	net  *netsim.Network
	opts ConcurrentOptions

	mu     sync.RWMutex
	nodes  map[ident.ObjectID]ident.NodeID
	objs   map[ident.NodeID]ident.ObjectID
	ports  []*Port
	closed bool

	seq seqTable
}

var _ Transport = (*Concurrent)(nil)

// NewConcurrent creates a fabric over the given network.
func NewConcurrent(net *netsim.Network, opts ConcurrentOptions) *Concurrent {
	c := &Concurrent{
		net:   net,
		opts:  opts,
		nodes: make(map[ident.ObjectID]ident.NodeID),
		objs:  make(map[ident.NodeID]ident.ObjectID),
	}
	c.seq.init()
	return c
}

// Port is one object's attachment to a Concurrent fabric.
type Port struct {
	c   *Concurrent
	obj ident.ObjectID
	ep  *netsim.Endpoint

	out  chan Message
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Bind attaches obj to the given netsim node and returns its port, whose
// Recv channel yields decoded deliveries in per-sender FIFO order.
func (c *Concurrent) Bind(obj ident.ObjectID, node ident.NodeID) (*Port, error) {
	return c.bind(obj, node, nil)
}

// BindFunc attaches obj with handler-based delivery: the port's pump invokes
// fn from its own goroutine, once per message. The returned port's Recv
// channel is nil.
func (c *Concurrent) BindFunc(obj ident.ObjectID, node ident.NodeID, fn Handler) (*Port, error) {
	if fn == nil {
		return nil, fmt.Errorf("transport: BindFunc needs a handler")
	}
	return c.bind(obj, node, fn)
}

func (c *Concurrent) bind(obj ident.ObjectID, node ident.NodeID, fn Handler) (*Port, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := c.nodes[obj]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicateBind, obj)
	}
	c.nodes[obj] = node
	c.objs[node] = obj
	p := &Port{
		c:    c,
		obj:  obj,
		ep:   c.net.Node(node),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if fn == nil {
		p.out = make(chan Message)
	}
	c.ports = append(c.ports, p)
	c.mu.Unlock()
	go p.pump(fn)
	return p, nil
}

// Node returns the netsim node obj is bound to.
func (c *Concurrent) Node(obj ident.ObjectID) (ident.NodeID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node, ok := c.nodes[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownDestination, obj)
	}
	return node, nil
}

// Isolate partitions obj's node away: every message to or from it is
// dropped until Heal.
func (c *Concurrent) Isolate(obj ident.ObjectID) error {
	node, err := c.Node(obj)
	if err != nil {
		return err
	}
	c.net.Isolate(node)
	return nil
}

// Heal reconnects an isolated object's node.
func (c *Concurrent) Heal(obj ident.ObjectID) error {
	node, err := c.Node(obj)
	if err != nil {
		return err
	}
	c.net.Heal(node)
	return nil
}

// Partition installs (or replaces) a named partition group at the object
// level: the named objects' nodes form one island, every other node the
// other, and messages crossing the boundary are dropped until HealPartition.
// This generalises Isolate's single-node exile to arbitrary splits of the
// world. Every object must be bound; an empty object list heals the group.
func (c *Concurrent) Partition(name string, objs ...ident.ObjectID) error {
	nodes := make([]ident.NodeID, len(objs))
	for i, obj := range objs {
		node, err := c.Node(obj)
		if err != nil {
			return err
		}
		nodes[i] = node
	}
	c.net.Partition(name, nodes...)
	return nil
}

// HealPartition removes a named partition group installed with Partition.
func (c *Concurrent) HealPartition(name string) {
	c.net.HealPartition(name)
}

// Send routes one message through the fabric. The codec encodes the payload,
// the fault policy (with lock-striped per-pair sequence state) decides its
// fate, and surviving copies enter the network.
func (c *Concurrent) Send(m Message) error {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return ErrClosed
	}
	node, ok := c.nodes[m.To]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDestination, m.To)
	}
	ep, err := c.endpointOf(m.From)
	if err != nil {
		return err
	}
	if c.opts.Codec != nil {
		p, err := c.opts.Codec.Encode(m.Payload)
		if err != nil {
			return err
		}
		m.Payload = p
	}
	copies := 1
	if c.opts.Faults != nil {
		copies = c.seq.verdictCopies(c.opts.Faults, m)
	}
	if c.opts.Sink != nil {
		c.opts.Sink.Sent(m)
		if copies == 0 {
			c.opts.Sink.Dropped(m)
		} else if copies == 2 {
			c.opts.Sink.Duplicated(m)
		}
	}
	for i := 0; i < copies; i++ {
		if err := ep.SendTagged(node, m.Kind, m.Action, m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// endpointOf returns the netsim endpoint of a bound object.
func (c *Concurrent) endpointOf(obj ident.ObjectID) (*netsim.Endpoint, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node, ok := c.nodes[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %s (sender not bound)", ErrUnknownDestination, obj)
	}
	return c.net.Node(node), nil
}

// Close stops every port pump. The underlying network is left running (its
// owner closes it).
func (c *Concurrent) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ports := c.ports
	c.mu.Unlock()
	for _, p := range ports {
		p.Close()
	}
	return nil
}

// Self returns the owning object's identifier.
func (p *Port) Self() ident.ObjectID { return p.obj }

// Fabric returns the Concurrent transport the port is bound to.
func (p *Port) Fabric() *Concurrent { return p.c }

// Reachable reports whether the fabric can currently route to the named
// object (nil when it can). It is the backend-portable replacement for
// looking the destination node up by hand.
func (p *Port) Reachable(to ident.ObjectID) error {
	_, err := p.c.Node(to)
	return err
}

// Send transmits one message from this port to the named object.
func (p *Port) Send(to ident.ObjectID, kind string, payload any) error {
	return p.c.Send(Message{From: p.obj, To: to, Kind: kind, Payload: payload})
}

// SendTagged transmits one message carrying an action routing tag in the
// envelope, so the receiving side can demultiplex without decoding the
// payload.
func (p *Port) SendTagged(to ident.ObjectID, kind string, action ident.ActionID, payload any) error {
	return p.c.Send(Message{From: p.obj, To: to, Kind: kind, Action: action, Payload: payload})
}

// Recv returns the delivery channel (nil for ports bound with BindFunc).
// The channel closes when the port or the network shuts down.
func (p *Port) Recv() <-chan Message { return p.out }

// Close stops the port's pump goroutine.
func (p *Port) Close() {
	p.once.Do(func() {
		close(p.stop)
		<-p.done
	})
}

// pump moves messages from the netsim endpoint to the consumer (the handler
// when bound with BindFunc, the Recv channel otherwise), translating node
// identifiers back to objects and applying the codec.
func (p *Port) pump(fn Handler) {
	defer close(p.done)
	if p.out != nil {
		defer close(p.out)
	}
	for {
		select {
		case <-p.stop:
			return
		case nm, ok := <-p.ep.Recv():
			if !ok {
				return
			}
			m, ok := p.translate(nm)
			if !ok {
				continue
			}
			if fn != nil {
				fn(m)
				continue
			}
			select {
			case p.out <- m:
			case <-p.stop:
				return
			}
		}
	}
}

// translate converts a netsim message into a transport message, decoding the
// payload and mapping the source node back to its object.
func (p *Port) translate(nm netsim.Message) (Message, bool) {
	p.c.mu.RLock()
	from, ok := p.c.objs[nm.From]
	p.c.mu.RUnlock()
	if !ok {
		return Message{}, false
	}
	m := Message{From: from, To: p.obj, Kind: nm.Kind, Action: nm.Action, Payload: nm.Payload}
	if p.c.opts.Codec != nil {
		payload, err := p.c.opts.Codec.Decode(m.Payload)
		if err != nil {
			if p.c.opts.Sink != nil {
				p.c.opts.Sink.Dropped(m)
			}
			return Message{}, false
		}
		m.Payload = payload
	}
	if p.c.opts.Sink != nil {
		p.c.opts.Sink.Delivered(m)
	}
	return m, true
}
