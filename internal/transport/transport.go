// Package transport is the single message-delivery seam of the repository:
// every fabric the reproduction runs on implements the same contract here.
//
// The contract is the paper's §4.2 substrate: disjoint address spaces that
// "must communicate by the exchange of messages", with FIFO delivery per
// ordered object pair. Centralising it gives one canonical place to count,
// trace, fault-inject and accelerate every message the system sends:
//
//   - Backends: Deterministic (absorbs protocol.Sim's queue/order logic and
//     Explore's schedule-enumeration hooks; SetChooser with RandChooser
//     randomises the interleaving), Concurrent (goroutine endpoints over
//     netsim) and TCP (one listener per fabric, framed sockets).
//   - Codec hook: payloads can be forced through an encode/decode boundary
//     (package wire provides the protocol-message codec), so any backend can
//     enforce the disjoint-address-space assumption.
//   - Sink hook: every send/delivery/drop/duplication is observable without
//     the backends growing bespoke counters.
//   - FaultPolicy hook: the one place a message's fate is decided, once per
//     Send by the sending fabric. One SeededFaults schedule yields the same
//     delivered multiset on every backend; a network partition is a
//     Partitions policy. The one fault real TCP adds, a severed connection,
//     is conformancetest.SeverRelay's.
package transport

import (
	"errors"
	"sync"

	"repro/internal/ident"
)

// Message is one unit of communication between two objects. Payload is
// opaque to the fabric; a Codec may rewrite it at the send/delivery
// boundary. Action, when non-zero, tags the message with the top-level
// action it belongs to: it travels in the envelope (every backend carries it
// alongside the payload, the TCP framing encodes it explicitly) so a
// receiver multiplexing many actions over one port can route the frame
// without decoding the payload.
type Message struct {
	From    ident.ObjectID
	To      ident.ObjectID
	Kind    string
	Action  ident.ActionID
	Payload any
}

// pair is an ordered (from, to) object pair — the FIFO unit.
type pair struct {
	from, to ident.ObjectID
}

// Handler consumes a delivered message. Deterministic backends invoke it
// synchronously from Step; the Concurrent and TCP backends invoke it from the
// destination port's goroutine, one message at a time.
type Handler func(m Message)

// recvChan is how the goroutine-backed fabrics express Bind as BindFunc: a
// handler that blocks sending on the port's Recv channel until stop closes,
// and a stopped hook that closes the channel behind the last delivery.
func recvChan(stop <-chan struct{}) (out chan Message, fn Handler, stopped func()) {
	out = make(chan Message)
	fn = func(m Message) {
		select {
		case out <- m:
		case <-stop:
		}
	}
	return out, fn, func() { close(out) }
}

// Codec rewrites payloads at the fabric boundary. Encode runs at send time,
// Decode at delivery time. Implementations may translate only the payload
// types they know (e.g. protocol messages to bytes) and pass everything else
// through unchanged.
type Codec interface {
	Encode(payload any) (any, error)
	Decode(payload any) (any, error)
}

// Sink observes fabric-level events. Implementations must be safe for
// concurrent use when installed on the Concurrent backend.
type Sink interface {
	// Sent is called once per accepted Send.
	Sent(m Message)
	// Delivered is called once per handler/port delivery (twice for a
	// duplicated message).
	Delivered(m Message)
	// Dropped is called when fault injection or a delivery filter discards
	// a message.
	Dropped(m Message)
	// Duplicated is called when fault injection schedules a second copy.
	Duplicated(m Message)
}

// Transport is the seam every delivery fabric implements. Endpoint
// registration is backend-specific (handlers on the deterministic fabrics,
// ports on the concurrent one), but counting, tracing and fault injection
// go through the shared hooks.
type Transport interface {
	// Send accepts a message for FIFO-per-pair delivery.
	Send(m Message) error
	// Close releases backend resources.
	Close() error
}

// Errors shared by the backends.
var (
	// ErrNoQuiescence is returned by Drain when the step budget is
	// exhausted before the fabric empties.
	ErrNoQuiescence = errors.New("transport: fabric did not quiesce")
	// ErrClosed is returned by Send after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownDestination is returned when the destination object has no
	// registered endpoint on a backend that requires one.
	ErrUnknownDestination = errors.New("transport: unknown destination")
	// ErrDuplicateBind is returned when an object is bound twice.
	ErrDuplicateBind = errors.New("transport: object already bound")
)

// Census is a concurrency-safe Sink that counts messages, mirroring the
// trace-log census shape ("kind=N"): it is what the reconstructed baselines
// and the fabric tests measure with.
type Census struct {
	mu         sync.Mutex
	sent       map[string]int
	delivered  int
	dropped    int
	duplicated int
}

// NewCensus returns an empty census sink.
func NewCensus() *Census { return &Census{sent: make(map[string]int)} }

// Sent implements Sink.
func (c *Census) Sent(m Message) {
	c.mu.Lock()
	c.sent[m.Kind]++
	c.mu.Unlock()
}

// Delivered implements Sink.
func (c *Census) Delivered(Message) {
	c.mu.Lock()
	c.delivered++
	c.mu.Unlock()
}

// Dropped implements Sink.
func (c *Census) Dropped(Message) {
	c.mu.Lock()
	c.dropped++
	c.mu.Unlock()
}

// Duplicated implements Sink.
func (c *Census) Duplicated(Message) {
	c.mu.Lock()
	c.duplicated++
	c.mu.Unlock()
}

// SentByKind returns a copy of the per-kind send counts.
func (c *Census) SentByKind() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.sent))
	for k, v := range c.sent {
		out[k] = v
	}
	return out
}

// TotalSent returns the total number of accepted sends.
func (c *Census) TotalSent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, v := range c.sent {
		total += v
	}
	return total
}

// CountSent returns the number of accepted sends of one kind.
func (c *Census) CountSent(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[kind]
}

// DeliveredCount returns the number of deliveries observed.
func (c *Census) DeliveredCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}

// DroppedCount returns the number of discarded messages observed.
func (c *Census) DroppedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// DuplicatedCount returns the number of duplications observed.
func (c *Census) DuplicatedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.duplicated
}
