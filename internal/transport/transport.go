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
//     randomises the interleaving), Concurrent (ports over netsim, which
//     calls them directly) and TCP (one listener per fabric, framed sockets).
//   - Codec hook: protocol bodies can be forced through bytes (package wire
//     provides the protocol-message codec), so any backend can enforce the
//     disjoint-address-space assumption.
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

	"repro/internal/fifo"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// Message is one unit of communication between two objects. Action, when
// non-zero, tags the message with the top-level action it belongs to: it
// travels in the envelope (every backend carries it alongside the content,
// the TCP framing encodes it explicitly) so a receiver multiplexing many
// actions over one port can route the frame without decoding the content.
//
// The content is typed and carried by value from sender to handler: Body is
// a protocol message's (Kind and From are the envelope's), Header the
// reliable layer's sequencing. Payload is opaque and for everything else:
// membership control traffic, baselines, tests. A Codec turns a body into
// bytes at the fabric boundary.
type Message struct {
	From    ident.ObjectID
	To      ident.ObjectID
	Kind    string
	Action  ident.ActionID
	Header  Header
	Body    Body
	Payload any
}

// Body is a protocol message's content beyond its envelope (netsim.Body).
type Body = netsim.Body

// Header is the reliable layer's sequencing header (netsim.Header).
type Header = netsim.Header

// pair is an ordered (from, to) object pair — the FIFO unit.
type pair struct {
	from, to ident.ObjectID
}

// Handler consumes a delivered message. Deterministic backends invoke it
// synchronously from Step. The Concurrent and TCP backends invoke it on
// whichever goroutine delivers: the sender's, a netsim latency link's or a
// socket reader's. There it must not block, calls on behalf of different
// senders may overlap, and one sender's messages arrive in its send order.
type Handler func(m Message)

// receiver is the receive end both goroutine-free ports share: deliver calls
// the handler on the delivering goroutine, under a read lock that Close takes
// for writing, so once Close has returned the handler is not running and will
// not be called again. Bound with a nil handler it is the Recv adapter: the
// handler queues into a fifo.Chan, which a consumer may drain at leisure.
type receiver struct {
	mu      sync.RWMutex
	fn      Handler
	stopped func()
	sink    Sink
	closed  bool
	once    sync.Once           // runs stopped
	in      *fifo.Pump[Message] // Recv adapter's queue; nil with a caller's handler
	out     <-chan Message      // Recv channel
}

func newReceiver(clk vclock.Clock, sink Sink, fn Handler, stopped func()) *receiver {
	r := &receiver{fn: fn, stopped: stopped, sink: sink}
	if fn == nil {
		r.in, r.out = fifo.Chan[Message](clk)
		r.fn, r.stopped = r.in.Put, r.in.Close
	}
	return r
}

// deliver hands m to the handler. It never waits for the lock: a writer
// holding or awaiting it is a Close in progress, and a message arriving then
// is discarded as one still queued at Close always was. Not waiting is also
// what lets a handler's own send re-enter a receiver (R3's ack) while that
// receiver is closing.
//
//caa:noalloc
func (r *receiver) deliver(m Message) {
	if !r.mu.TryRLock() {
		return
	}
	if !r.closed {
		if r.sink != nil {
			r.sink.Delivered(m)
		}
		r.fn(m)
	}
	r.mu.RUnlock()
}

// Recv returns the delivery channel (nil for ports bound with BindFunc and a
// handler). The channel closes when the port or its fabric shuts down.
func (r *receiver) Recv() <-chan Message { return r.out }

// Close stops delivery and returns once no handler call is in progress and
// the stopped hook, which runs exactly once, has returned: the handler will
// not be called again, and a Recv channel is closed. Close must not be
// called from the handler.
func (r *receiver) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	if r.stopped != nil {
		r.once.Do(r.stopped)
	}
}

// Codec is the byte boundary for protocol bodies (package wire provides the
// protocol-message codec). A fabric with a codec lays out as bytes, at Send,
// every message the codec translates, and restores the message from them:
// TCP ships the bytes, the in-process fabrics decode them again at once, so
// what a handler receives shares no memory with what was sent. What the
// bytes hold is the codec's to say: the body alone (wire), or the whole
// content a socket must carry (the group layer's socket layout, header and
// payload included). What a codec leaves out travels as it is.
//
// Whether a codec translates a message must not depend on its body. On TCP,
// where the receiver asks before it decodes, it rests on the envelope (From,
// To, Kind, Action) alone.
type Codec interface {
	// Size reports the exact length Append adds for m, and false when the
	// codec does not translate m.
	Size(m Message) (n int, ok bool)
	// Append appends the encoding of m, which Size accepted, to dst.
	Append(dst []byte, m Message) ([]byte, error)
	// Decode parses what Append encoded for a message with m's envelope and
	// returns m carrying it. The result may alias b: a fabric never reuses a
	// buffer it handed over.
	Decode(m Message, b []byte) (Message, error)
}

// roundTrip passes m's body through the codec's bytes, when the codec
// translates m: the in-process fabrics' Send, which leaves the receiver a
// body that shares nothing with the sender's.
//
//caa:noalloc
func roundTrip(c Codec, m Message) (Message, error) {
	n, ok := c.Size(m)
	if !ok {
		return m, nil
	}
	//protolint:allow noalloc the body's bytes: the one allocation a codec exists to make
	b, err := c.Append(make([]byte, 0, n), m)
	if err != nil {
		return m, err
	}
	return c.Decode(m, b)
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
