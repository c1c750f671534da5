// Package group provides the group-communication support the paper names as
// the practical implementation route for the resolution algorithm (§4.5):
// "a practical way could be to use group communication and a group membership
// service. Participating objects in a CA action could be treated as members
// of a closed group which multicasts service messages to all members."
//
// It offers:
//   - Directory: a membership service mapping participating objects to the
//     nodes they run on, with closed-group views.
//   - Transport: per-object reliable FIFO messaging. RawTransport assumes the
//     network is reliable (the algorithm's baseline assumption); R3Transport
//     ("reliable over unreliable") adds sequence numbers, cumulative acks,
//     retransmission and duplicate suppression so the same guarantees hold on
//     a lossy/duplicating netsim configuration.
//
// A multicast is the sender's loop over the view: the protocol engine sends
// each service message point to point, so the package has no multicast
// primitive of its own.
package group

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// Delivery is a message handed to the application layer. Action carries the
// sender's routing tag (zero when sent with plain Send), so a receiver hosting
// many concurrent actions can demultiplex deliveries — protocol messages and
// membership traffic alike — without inspecting their content. Body is a
// protocol message's content, by value; Payload is everything else's.
type Delivery struct {
	From    ident.ObjectID
	Kind    string
	Action  ident.ActionID
	Body    transport.Body
	Payload any
}

// Transport is the reliable FIFO point-to-point channel abstraction the
// resolution protocol runs over.
type Transport interface {
	// Self returns the owning object's identifier.
	Self() ident.ObjectID
	// Send transmits to one peer with FIFO-per-pair, exactly-once semantics.
	Send(to ident.ObjectID, kind string, payload any) error
	// SendTagged is Send with an action routing tag carried in the envelope;
	// it surfaces as Delivery.Action at the receiver.
	SendTagged(to ident.ObjectID, kind string, action ident.ActionID, payload any) error
	// SendMessage transmits m to m.To: the one send path, which Send and
	// SendTagged wrap. m's Kind, Action, Body and Payload surface in the
	// Delivery; its From is the transport's own and its Header the
	// transport's to set.
	SendMessage(m transport.Message) error
	// Recv yields deliveries; the channel closes when the transport closes.
	// It is nil for a transport bound with a deliver function (BindRaw,
	// BindR3), which hands deliveries over on the delivering goroutine
	// instead.
	Recv() <-chan Delivery
	// Close releases resources.
	Close()
}

// Port is the fabric attachment the group transports are built on: the
// surface shared by every transport backend's port type (*transport.Port
// over netsim, *transport.TCPPort over sockets). Deliveries do not come
// through it: the handler given to Binder.Bind receives them on whichever
// goroutine delivers. Reachable replaces backend-specific lookups (netsim node
// resolution, TCP address books) so RawTransport and R3Transport run
// unchanged over any fabric.
type Port interface {
	// Self returns the owning object's identifier.
	Self() ident.ObjectID
	// SendMessage transmits m, stamped as sent from this port, to m.To.
	SendMessage(m transport.Message) error
	// Reachable reports whether the fabric can currently route to the named
	// object (nil when it can).
	Reachable(to ident.ObjectID) error
	// Close releases the attachment and returns once no handler call is in
	// progress: the handler will not be called again.
	Close()
}

// Binder is a membership service that can attach an object to its fabric:
// *Directory binds onto the shared netsim fabric, *TCPDirectory onto
// per-object TCP fabrics. The transport constructors accept any Binder. fn
// and stopped are the fabric's BindFunc contract (transport.Handler): fn runs
// on whichever goroutine delivers, possibly before Bind has returned; it must
// not block; calls for different senders may overlap, and one sender's
// arrive in its order. stopped (when non-nil) runs once when the port stops,
// after which fn is never called.
type Binder interface {
	Bind(obj ident.ObjectID, fn transport.Handler, stopped func()) (Port, error)
}

// Errors returned by the directory.
var (
	ErrUnknownMember = errors.New("group: unknown member")
	ErrDuplicate     = errors.New("group: member already registered")
)

// memberErr translates the fabric's unknown-destination error into the
// directory's membership error, so callers keep seeing group semantics.
func memberErr(err error) error {
	if errors.Is(err, transport.ErrUnknownDestination) {
		return fmt.Errorf("%w: %v", ErrUnknownMember, err)
	}
	return err
}

// Option configures a Directory.
type Option func(*Directory)

// WithCodec forces every protocol body the group's transports carry through
// the given codec's bytes (the disjoint-address-space enforcement of §2.1).
// The codec sees a reliable-transport envelope as the message it wraps, so
// it composes with both the raw and the reliable transport.
func WithCodec(c transport.Codec) Option {
	return func(d *Directory) { d.codec = c }
}

// Directory is the membership service: it assigns each participating object
// a network node on the concurrent transport fabric and tracks closed-group
// views. Its fabric's fault policy is the directory's partitions, so cutting
// the network is a call on the directory.
type Directory struct {
	mu      sync.Mutex
	fabric  *transport.Concurrent
	codec   transport.Codec
	cuts    transport.Partitions
	nodes   map[ident.ObjectID]ident.NodeID
	nextTag ident.NodeID
}

// NewDirectory creates a membership service over the given network, wrapping
// it in a Concurrent transport fabric.
func NewDirectory(net *netsim.Network, opts ...Option) *Directory {
	d := &Directory{nodes: make(map[ident.ObjectID]ident.NodeID)}
	for _, o := range opts {
		o(d)
	}
	var codec transport.Codec
	if d.codec != nil {
		codec = envelopeCodec{inner: d.codec}
	}
	d.fabric = transport.NewConcurrent(net, transport.ConcurrentOptions{
		Codec:  codec,
		Faults: d.cuts.Verdict, // bound once: a send with no cut allocates nothing
	})
	return d
}

// Fabric exposes the directory's concurrent transport for direct port use.
func (d *Directory) Fabric() *transport.Concurrent { return d.fabric }

// Partition installs (or replaces) a named group of the fabric's Partitions:
// every message between the named objects and everyone else is dropped until
// HealPartition. The objects must be bound; an empty list heals the group.
func (d *Directory) Partition(name string, objs ...ident.ObjectID) error {
	for _, obj := range objs {
		if _, err := d.fabric.Node(obj); err != nil {
			return err
		}
	}
	d.cuts.Set(name, objs...)
	return nil
}

// HealPartition removes a named partition group.
func (d *Directory) HealPartition(name string) { d.cuts.Heal(name) }

// Bind implements Binder: it places obj on a fresh node and returns its port
// behind the portable Port surface.
func (d *Directory) Bind(obj ident.ObjectID, fn transport.Handler, stopped func()) (Port, error) {
	d.mu.Lock()
	if _, dup := d.nodes[obj]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, obj)
	}
	d.nextTag++
	node := d.nextTag
	d.nodes[obj] = node
	d.mu.Unlock()
	port, err := d.fabric.BindFunc(obj, node, fn, stopped)
	if err != nil {
		d.mu.Lock()
		delete(d.nodes, obj)
		d.mu.Unlock()
		return nil, err
	}
	return port, nil
}

// Members returns the sorted identifiers of every registered object — the
// closed group view.
func (d *Directory) Members() []ident.ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ident.ObjectID, 0, len(d.nodes))
	for obj := range d.nodes {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KindEnvelope is the wire kind of the reliable transport's envelopes: a
// message of this kind carries its sequencing in its Header, and Header.Kind
// is the kind of the message it wraps. It is exported (with KindHeartbeat and
// membership.KindView) so the msgkind census and the viewkind analyzer can
// enumerate the group-layer kinds.
const KindEnvelope = "group.envelope"

const wireKind = KindEnvelope

// unwrap presents a reliable-transport envelope to a codec as the message it
// wraps; any other message is its own.
//
//caa:noalloc
func unwrap(m transport.Message) transport.Message {
	if m.Kind == wireKind {
		m.Kind = m.Header.Kind
	}
	return m
}

// envelopeCodec adapts a protocol-body codec to the group's in-process
// traffic: a reliable-transport envelope is shown to the inner codec as the
// message it wraps, so its body is translated while the sequencing header
// stays native.
type envelopeCodec struct {
	inner transport.Codec
}

func (c envelopeCodec) Size(m transport.Message) (int, bool) { return c.inner.Size(unwrap(m)) }

func (c envelopeCodec) Append(dst []byte, m transport.Message) ([]byte, error) {
	return c.inner.Append(dst, unwrap(m))
}

func (c envelopeCodec) Decode(m transport.Message, b []byte) (transport.Message, error) {
	d, err := c.inner.Decode(unwrap(m), b)
	d.Kind = m.Kind
	return d, err
}
