// Package netsim simulates the distributed substrate the paper assumes: a set
// of nodes with disjoint address spaces connected by a message-passing
// network that provides FIFO delivery per ordered node pair (§4.2 "FIFO
// message sending/receiving between objects").
//
// The simulation runs in-process and is a link model, not a queueing layer:
// a send applies the seeded loss model (drop, duplication) and then calls the
// destination Endpoint's deliver function, at once on the sender's goroutine
// or, on a pair with latency, from that pair's serial link. A NodeFunc
// endpoint's owner (a transport port) queues nothing: its handler runs on
// that goroutine. A Node endpoint has netsim's own unbounded queue and Recv
// channel behind it. The loss model sits underneath the reliable-multicast
// layer in package group, mirroring the implementation route sketched in
// §4.5 of the paper.
//
// Partitions are not netsim's: a cut is a transport.Partitions fault policy
// the sending fabric applies, the one place faults are decided on every
// backend. The seeded DropRate/DupRate model stays because the benchmark's
// lossy workload sets it; it is to become a fault-policy client too.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fifo"
	"repro/internal/ident"
	"repro/internal/vclock"
)

// Message is a unit of communication between two nodes. Action, when
// non-zero, tags the message with the top-level action it belongs to so a
// multiplexing receiver can route it without inspecting the content; the
// network itself never reads it. The content is typed: Body carries a
// protocol message, Header the reliable layer's sequencing, both by value,
// so a message crosses the network without an allocation. Payload is opaque
// and for everything else (membership control traffic, tests).
type Message struct {
	From    ident.NodeID
	To      ident.NodeID
	Kind    string
	Action  ident.ActionID
	Header  Header
	Body    Body
	Payload any
}

// Body is what a protocol message says beyond its envelope: the action it
// concerns, that action's ancestry (outermost first, ending with Action) and
// the exception it carries ("" for none). The envelope's Kind and From are
// the message's kind and sender, so the body repeats neither. It lives here,
// at the bottom of the delivery stack, so every layer above carries it by
// value.
type Body struct {
	Action ident.ActionID
	Path   []ident.ActionID
	Exc    string
}

// IsZero reports whether b carries nothing.
func (b Body) IsZero() bool { return b.Action == 0 && b.Path == nil && b.Exc == "" }

// Header is the reliable layer's sequencing header (group.R3Transport): the
// kind of the message it wraps, that message's sequence number on its pair
// and the cumulative acknowledgement riding with it. IsAck marks a
// stand-alone acknowledgement, which wraps nothing. The zero Header is a
// message sent without one.
type Header struct {
	Kind  string
	Seq   uint64
	Ack   uint64
	IsAck bool
}

// String renders the message envelope.
func (m Message) String() string {
	return fmt.Sprintf("%s->%s %s", m.From, m.To, m.Kind)
}

// LatencyModel computes the one-way delivery delay for a message. Delays are
// applied serially per link, so per-pair FIFO order is always preserved.
type LatencyModel func(from, to ident.NodeID) time.Duration

// NoLatency delivers every message immediately.
func NoLatency(ident.NodeID, ident.NodeID) time.Duration { return 0 }

// FixedLatency returns a model with a constant one-way delay.
func FixedLatency(d time.Duration) LatencyModel {
	return func(ident.NodeID, ident.NodeID) time.Duration { return d }
}

// JitterLatency returns a model with delay uniformly distributed in
// [base, base+jitter). Draws are lock-free — each advances an atomic counter
// and hashes it with the seed (SplitMix64) — so latency sampling never
// serialises concurrent senders on a shared RNG mutex. A fixed seed yields a
// reproducible draw sequence.
func JitterLatency(base, jitter time.Duration, seed int64) LatencyModel {
	var n atomic.Uint64
	return func(ident.NodeID, ident.NodeID) time.Duration {
		if jitter <= 0 {
			return base
		}
		h := splitmix64(uint64(seed) ^ splitmix64(n.Add(1)))
		return base + time.Duration(h%uint64(jitter))
	}
}

// splitmix64 is the SplitMix64 finaliser: a multiply-xor-shift chain whose
// outputs are uniformly distributed over uint64 even for sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Config controls a Network. There is no inbox bound: an endpoint bound
// through NodeFunc has no netsim inbox to cap, so the old Bound knob could not
// apply to any path a fabric serves, no test outside netsim's own set it and
// no bench row showed a benefit. Admission control (core.Options.MaxInFlight)
// is where backpressure lives.
type Config struct {
	// Latency computes per-message one-way delay. Nil means NoLatency.
	Latency LatencyModel
	// DropRate is the probability in [0,1) that a message is silently lost.
	DropRate float64
	// DupRate is the probability in [0,1) that a message is delivered twice.
	DupRate float64
	// Seed seeds the fault-injection RNG; fault decisions are deterministic
	// for a fixed seed and send sequence.
	Seed int64
	// Clock is the time source for link latency waits and the clock queued
	// messages are counted on (links, Node inboxes, a fabric's ports). Nil
	// means the real clock, which counts nothing; on a vclock.Virtual latency
	// is exact and time stands still while a message is being handled.
	Clock vclock.Clock
}

// ErrClosed is returned by Send after the network has been shut down.
var ErrClosed = errors.New("netsim: network closed")

// ErrUnknownNode is returned when sending to a node with no endpoint.
var ErrUnknownNode = errors.New("netsim: unknown node")

// Network is a simulated message-passing network. Construct with New; use
// Node to create endpoints. Close releases all goroutines.
type Network struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[ident.NodeID]*Endpoint
	links     map[linkKey]*fifo.Pump[Message]
	closed    bool
	stats     Stats
}

type linkKey struct {
	from, to ident.NodeID
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = NoLatency
	}
	cfg.Clock = vclock.Or(cfg.Clock)
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: make(map[ident.NodeID]*Endpoint),
		links:     make(map[linkKey]*fifo.Pump[Message]),
	}
}

// Clock returns the clock the network runs on (never nil).
func (n *Network) Clock() vclock.Clock { return n.cfg.Clock }

// ErrNodeTaken is returned by NodeFunc for a node that already has an
// endpoint.
var ErrNodeTaken = errors.New("netsim: node already has an endpoint")

// Node returns the endpoint for id, creating it if necessary with netsim's
// own inbox behind it: arrivals queue without bound in a fifo.Chan, which
// feeds the Recv channel.
func (n *Network) Node(id ident.NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	in, out := fifo.Chan[Message](n.cfg.Clock)
	ep := &Endpoint{id: id, net: n, deliver: in.Put, closed: in.Close, out: out}
	n.endpoints[id] = ep
	return ep
}

// NodeFunc attaches a fresh node whose arrivals the network hands to deliver,
// one call per copy, on the sending goroutine (or the pair's link goroutine
// when the pair has latency). What one goroutine sends to the node is
// delivered in that order; calls on behalf of different senders may overlap.
// deliver must not block: it runs on the sender's goroutine, or holds up
// everything behind it on the link. closed, when non-nil, is called once when
// the network shuts down; it may wait out deliver calls in progress, but no
// more. This is the fabric's entry point (transport.Concurrent); everything
// else uses Node.
func (n *Network) NodeFunc(id ident.NodeID, deliver func(Message), closed func()) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.endpoints[id]; taken {
		return nil, fmt.Errorf("%w: %s", ErrNodeTaken, id)
	}
	ep := &Endpoint{id: id, net: n, deliver: deliver, closed: closed}
	n.endpoints[id] = ep
	return ep, nil
}

// Close shuts the network down: links stop, every endpoint is told (Node
// inboxes close their Recv channel, queued messages discarded), and Close
// blocks until netsim's own goroutines have exited. Sends after Close return
// ErrClosed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := make([]*fifo.Pump[Message], 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	for _, l := range links {
		l.Shutdown()
	}
	for _, ep := range eps {
		if ep.closed != nil {
			ep.closed()
		}
	}
	for _, l := range links {
		l.Close()
	}
}

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats.clone()
}

// ResetStats zeroes all counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// send routes a message from an endpoint. It applies the loss model, then
// hands the message to the per-pair link (serial, latency-applying) or, with
// zero latency, directly to the destination's deliver function. The instant
// path takes n.mu once: delivery is certain by then, so it is counted with
// the send.
func (n *Network) send(m Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.endpoints[m.To]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, m.To)
	}
	n.stats.record(statSent, m.Kind)

	copies := 1
	if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		copies = 0
		n.stats.record(statDropped, m.Kind)
	} else if n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate {
		copies = 2
		n.stats.record(statDuplicated, m.Kind)
	}
	if copies == 0 {
		n.mu.Unlock()
		return nil
	}

	// Route through the pair's serial link whenever one exists, not only
	// when this particular draw is positive: a zero-delay message taking the
	// direct path could otherwise overtake earlier messages still waiting
	// out their latency on the link, breaking per-pair FIFO.
	key := linkKey{from: m.From, to: m.To}
	lk := n.links[key]
	if lk == nil && n.cfg.Latency(m.From, m.To) > 0 {
		lk = n.newLink(dst)
		n.links[key] = lk
	}
	if lk == nil {
		n.stats.Delivered += copies
	}
	n.mu.Unlock()

	for i := 0; i < copies; i++ {
		if lk != nil {
			lk.Put(m)
		} else {
			dst.deliver(m)
		}
	}
	return nil
}
