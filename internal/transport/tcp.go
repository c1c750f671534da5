package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/vclock"
	"repro/internal/wire/frame"
)

// TCPOptions configure a TCP fabric.
type TCPOptions struct {
	// Codec, when non-nil, encodes the content of every message it
	// translates at Send and decodes it at delivery. Any other message must
	// carry a []byte, string or nil payload and nothing else: the fabric
	// genuinely serialises every message, so install the wire codec (or
	// the group layer's socket codec) for anything richer.
	Codec Codec
	// Sink, when non-nil, observes sends, deliveries, drops, duplications.
	// It must be safe for concurrent use.
	Sink Sink
	// Faults, when non-nil, decides each send's fate (drop, duplicate,
	// deliver) before the message is framed, as on every other backend. The
	// one fault real TCP adds, a connection severed mid-stream, is for a relay
	// between the fabrics to inject (conformancetest.SeverRelay).
	Faults FaultPolicy
	// Resolve maps a destination object to a peer fabric's address. It is
	// consulted at send time for objects not bound locally and not in the
	// static peer table (SetPeer). Nil means only SetPeer entries route.
	Resolve func(obj ident.ObjectID) (string, error)
}

// Dialling: one attempt is bounded by dialTimeout, and a writer whose dial
// failed retries after a backoff that starts at redialMin and doubles up to
// redialMax.
const (
	dialTimeout = 2 * time.Second
	redialMin   = 5 * time.Millisecond
	redialMax   = time.Second
)

// TCP is the fourth delivery fabric: real TCP connections between OS
// processes (or between listeners inside one process), carrying
// length-prefixed frames (package wire/frame). It is the paper's §4.2
// substrate made literal — disjoint address spaces that "must communicate by
// the exchange of messages" — where the other backends only simulate it.
//
// Topology: every fabric owns one listener and hosts any number of locally
// bound objects; remote objects are reached through a peer table (SetPeer /
// Resolve) mapping them to their fabric's address. All traffic to one remote
// address shares a single lazily dialled connection whose frames are written
// in send-call order, so FIFO-per-ordered-pair holds end to end: the sender
// sequences frames, TCP preserves stream order, and the receiving fabric
// reads each connection on a single goroutine, which calls the destination
// object's handler frame by frame.
//
// Reliability: while a connection lives, delivery is reliable and ordered.
// When a connection breaks, the writer redials with exponential backoff and
// resumes with whatever was framed since — frames in flight during the
// failure, that is the batch being written, may be lost (and are never
// duplicated by the fabric itself). Layer
// group.R3Transport on top for exactly-once delivery across reconnects,
// exactly as over the lossy simulated network.
//
// The codec, sink and fault-policy seams behave identically to the other
// backends, so the conformance suite holds the four fabrics to one contract.
type TCP struct {
	opts TCPOptions
	ln   net.Listener

	mu     sync.RWMutex
	local  map[ident.ObjectID]*TCPPort
	book   map[ident.ObjectID]string
	peers  map[string]*tcpPeer
	conns  map[net.Conn]struct{} // accepted connections, for Close
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup // accept loop + per-conn readers
}

var _ Transport = (*TCP)(nil)

// NewTCP creates a fabric and starts its listener on an ephemeral loopback
// port.
func NewTCP(opts TCPOptions) (*TCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen: %w", err)
	}
	t := &TCP{
		opts:  opts,
		ln:    ln,
		local: make(map[ident.ObjectID]*TCPPort),
		book:  make(map[ident.ObjectID]string),
		peers: make(map[string]*tcpPeer),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's address, to be handed to peer fabrics'
// SetPeer.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeer routes messages for obj to the fabric listening on addr.
// Re-registering an object overwrites its address (the next dial uses it).
func (t *TCP) SetPeer(obj ident.ObjectID, addr string) {
	t.mu.Lock()
	t.book[obj] = addr
	t.mu.Unlock()
}

// Bind attaches obj to this fabric with channel delivery: the returned
// port's Recv channel yields decoded deliveries in per-sender FIFO order. It
// is BindFunc with a nil handler.
func (t *TCP) Bind(obj ident.ObjectID) (*TCPPort, error) {
	return t.BindFunc(obj, nil, nil)
}

// BindFunc attaches obj with handler delivery: fn is called once per message
// on the delivering goroutine (a connection's reader, or the sender's for a
// destination bound to this fabric), under the Handler contract. When the
// port stops, stopped (when non-nil) runs once, and fn is never called after
// that. A nil fn selects the Recv channel.
func (t *TCP) BindFunc(obj ident.ObjectID, fn Handler, stopped func()) (*TCPPort, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, dup := t.local[obj]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateBind, obj)
	}
	p := &TCPPort{t: t, obj: obj, receiver: newReceiver(nil, t.opts.Sink, fn, stopped)}
	t.local[obj] = p
	return p, nil
}

// Send routes one message through the fabric: the codec encodes the payload,
// the fault policy decides its fate, and surviving copies are framed onto
// the destination peer's connection (or handed to the destination's handler
// when it is bound to this fabric).
func (t *TCP) Send(m Message) error {
	t.mu.RLock()
	closed := t.closed
	localPort := t.local[m.To]
	addr, inBook := t.book[m.To]
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}

	payload, isString, size, err := t.content(m, localPort == nil)
	if err != nil {
		return err
	}

	n := copies(t.opts.Faults, t.opts.Sink, m)
	if n == 0 {
		return nil
	}

	f := frame.Frame{From: m.From, To: m.To, Kind: m.Kind, Action: m.Action, Payload: payload, StringPayload: isString}
	if localPort != nil {
		for i := 0; i < n; i++ {
			localPort.deliver(f)
		}
		return nil
	}

	if !inBook {
		if t.opts.Resolve == nil {
			return fmt.Errorf("%w: %s", ErrUnknownDestination, m.To)
		}
		addr, err = t.opts.Resolve(m.To)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrUnknownDestination, m.To, err)
		}
	}
	peer, err := t.peerFor(addr)
	if err != nil {
		return err
	}
	return peer.enqueue(f, m, size, n)
}

// Reachable reports whether the fabric can currently route to obj.
func (t *TCP) Reachable(obj ident.ObjectID) error {
	t.mu.RLock()
	_, local := t.local[obj]
	_, booked := t.book[obj]
	t.mu.RUnlock()
	if local || booked {
		return nil
	}
	if t.opts.Resolve != nil {
		if _, err := t.opts.Resolve(obj); err == nil {
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrUnknownDestination, obj)
}

// content lays m's content out as frame bytes and reports the length of the
// codec's encoding: -1 when the codec does not translate m, whose payload's
// own bytes then go, and whose header or body cannot cross a socket. A remote
// send's encoding is left to enqueue, which writes it in place.
func (t *TCP) content(m Message, remote bool) ([]byte, bool, int, error) {
	if t.opts.Codec != nil {
		if n, ok := t.opts.Codec.Size(m); ok {
			if remote {
				return nil, false, n, nil
			}
			b, err := t.opts.Codec.Append(make([]byte, 0, n), m)
			return b, false, n, err
		}
	}
	if m.Header != (Header{}) || !m.Body.IsZero() {
		return nil, false, -1, fmt.Errorf("transport: tcp %s message carries a header or body no codec translates", m.Kind)
	}
	b, isString, err := framePayload(m.Payload)
	return b, isString, -1, err
}

// framePayload converts a payload to its frame bytes.
func framePayload(v any) ([]byte, bool, error) {
	switch p := v.(type) {
	case []byte:
		return p, false, nil
	case string:
		return []byte(p), true, nil
	case nil:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("transport: tcp payload must be []byte or string after encoding, got %T", v)
	}
}

// peerFor returns (creating and starting on demand) the outbound peer for
// one remote address.
func (t *TCP) peerFor(addr string) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if p, ok := t.peers[addr]; ok {
		return p, nil
	}
	p := &tcpPeer{t: t, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	t.peers[addr] = p
	t.wg.Add(1)
	go p.writeLoop()
	return p, nil
}

// Close shuts the fabric down: the listener stops, outbound writers and
// inbound readers exit, ports close their channels. Close blocks until every
// fabric goroutine has exited. Frames still queued for remote peers are
// discarded.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	ports := make([]*TCPPort, 0, len(t.local))
	for _, p := range t.local {
		ports = append(ports, p)
	}
	t.mu.Unlock()

	_ = t.ln.Close()
	for _, p := range peers {
		p.close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	for _, p := range ports {
		p.Close()
	}
	t.wg.Wait()
	return nil
}

// acceptLoop accepts inbound connections and hands each to a reader.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readConn(conn)
	}
}

// readConn deframes one inbound connection and hands each frame to its
// destination port, whose handler runs on this goroutine. A malformed frame
// poisons the stream (framing offers no resynchronisation point), so the
// connection is dropped; the sender redials and continues.
func (t *TCP) readConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		f, err := frame.Read(br)
		if err != nil {
			return
		}
		t.mu.RLock()
		port := t.local[f.To]
		t.mu.RUnlock()
		if port == nil {
			if t.opts.Sink != nil {
				t.opts.Sink.Dropped(Message{From: f.From, To: f.To, Kind: f.Kind, Action: f.Action})
			}
			continue
		}
		port.deliver(f)
	}
}

// tcpPeer owns the single outbound connection to one remote fabric: sends
// frame into an unbounded pending byte buffer (they never block on the
// network) that a writer goroutine, dialling lazily and redialling with
// exponential backoff, hands to the socket one whole batch at a time.
type tcpPeer struct {
	t    *TCP
	addr string

	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte // encoded frames, in send-call order, not yet handed to a Write
	spare   []byte // the previous batch's buffer, empty, waiting to become pending
	conn    net.Conn
	closed  bool
}

// maxSpareBuffer bounds the write buffer a peer keeps between batches, so
// the backlog of one long disconnect is not pinned for the peer's lifetime.
const maxSpareBuffer = 64 << 10

// enqueue frames f onto the pending buffer, n times (see appendFrame).
//
//caa:noalloc
func (p *tcpPeer) enqueue(f frame.Frame, m Message, size, n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	for i := 0; i < n; i++ {
		buf, err := p.appendFrame(p.pending, f, m, size)
		if err != nil {
			return err
		}
		p.pending = buf
	}
	p.cond.Signal()
	return nil
}

// appendFrame appends f's frame to dst. With size >= 0 its payload is the
// codec's encoding of m, size bytes, appended in place of f.Payload.
//
//caa:noalloc
func (p *tcpPeer) appendFrame(dst []byte, f frame.Frame, m Message, size int) ([]byte, error) {
	if size < 0 {
		return frame.Append(dst, f)
	}
	start := len(dst)
	dst, err := frame.AppendHead(dst, f, size)
	mark := len(dst)
	if err == nil {
		dst, err = p.t.opts.Codec.Append(dst, m)
	}
	if err == nil && len(dst)-mark != size {
		//protolint:allow noalloc failure path: a codec whose Size disagrees with its Append
		err = fmt.Errorf("transport: tcp codec appended %d bytes for %s, its Size said %d", len(dst)-mark, m.Kind, size)
	}
	if err != nil {
		return dst[:start], err
	}
	return frame.Seal(dst, start)
}

// close wakes the writer up and closes any live connection so a blocked
// Write returns promptly.
func (p *tcpPeer) close() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// writeLoop hands the pending buffer to the connection, dialling on demand.
// Everything framed while the previous Write was in the kernel goes out in
// the next one, so a burst costs one syscall, not one per frame. A batch is
// taken only once a connection stands; a batch whose Write fails is dropped
// whole (part of it may have reached the peer — resending on the fresh
// connection could duplicate frames) and the writer reconnects for the next.
func (p *tcpPeer) writeLoop() {
	defer p.t.wg.Done()
	backoff := redialMin
	for {
		p.mu.Lock()
		for len(p.pending) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			if p.conn != nil {
				_ = p.conn.Close()
				p.conn = nil
			}
			p.mu.Unlock()
			return
		}
		conn := p.conn
		var batch []byte
		if conn != nil {
			batch, p.pending, p.spare = p.pending, p.spare, nil
		}
		p.mu.Unlock()

		if conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
			if err != nil {
				if !p.sleep(backoff) {
					return
				}
				if backoff *= 2; backoff > redialMax {
					backoff = redialMax
				}
				continue
			}
			backoff = redialMin
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				_ = c.Close()
				return
			}
			p.conn = c
			p.mu.Unlock()
			continue
		}

		_, err := conn.Write(batch)
		p.mu.Lock()
		if err != nil {
			_ = conn.Close()
			if p.conn == conn {
				p.conn = nil
			}
		}
		if cap(batch) <= maxSpareBuffer {
			p.spare = batch[:0]
		}
		p.mu.Unlock()
	}
}

// sleep waits d or until the fabric closes; it reports whether the writer
// should keep running.
func (p *tcpPeer) sleep(d time.Duration) bool {
	woke := make(chan struct{})
	timer := vclock.System.AfterFunc(d, func() { close(woke) })
	defer timer.Stop()
	select {
	case <-woke:
		return true
	case <-p.t.stop:
		return false
	}
}

// TCPPort is one object's attachment to a TCP fabric.
type TCPPort struct {
	t   *TCP
	obj ident.ObjectID
	*receiver
}

// Self returns the owning object's identifier.
func (p *TCPPort) Self() ident.ObjectID { return p.obj }

// Send transmits one message from this port to the named object.
func (p *TCPPort) Send(to ident.ObjectID, kind string, payload any) error {
	return p.SendMessage(Message{To: to, Kind: kind, Payload: payload})
}

// SendTagged transmits one message carrying an action routing tag in the
// frame envelope.
func (p *TCPPort) SendTagged(to ident.ObjectID, kind string, action ident.ActionID, payload any) error {
	return p.SendMessage(Message{To: to, Kind: kind, Action: action, Payload: payload})
}

// SendMessage transmits m, stamped as sent from this port, to m.To.
func (p *TCPPort) SendMessage(m Message) error {
	m.From = p.obj
	return p.t.Send(m)
}

// Reachable reports whether the fabric can currently route to the named
// object.
func (p *TCPPort) Reachable(to ident.ObjectID) error { return p.t.Reachable(to) }

// deliver turns one inbound frame into a message and hands it to the
// receive end: the codec decodes the content of a message it translates, any
// other keeps its payload's original type. Whether the codec translates the
// message is asked of the envelope alone, the bytes being still encoded.
//
//caa:noalloc
func (p *TCPPort) deliver(f frame.Frame) {
	if m, ok := p.translate(f); ok {
		p.receiver.deliver(m)
	}
}

// translate is deliver's conversion; a frame the codec cannot decode is
// dropped.
func (p *TCPPort) translate(f frame.Frame) (Message, bool) {
	m := Message{From: f.From, To: p.obj, Kind: f.Kind, Action: f.Action}
	c, translated := p.t.opts.Codec, false
	if c != nil {
		_, translated = c.Size(m)
	}
	if translated {
		var err error
		if m, err = c.Decode(m, f.Payload); err != nil {
			if p.t.opts.Sink != nil {
				p.t.opts.Sink.Dropped(m)
			}
			return Message{}, false
		}
	} else {
		switch {
		case f.StringPayload:
			m.Payload = string(f.Payload)
		case f.Payload != nil:
			m.Payload = f.Payload
		}
	}
	return m, true
}
