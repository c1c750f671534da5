package group

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/wire/frame"
)

// TCPDirOption configures a TCPDirectory.
type TCPDirOption func(*TCPDirectory)

// WithTCPCodec sends every protocol body through the given codec's bytes,
// mirroring WithCodec on the netsim directory. Without one, and for any
// message it does not translate, the payload must be []byte, string or nil:
// over real sockets there is no in-process shortcut for richer values.
func WithTCPCodec(c transport.Codec) TCPDirOption {
	return func(d *TCPDirectory) { d.codec = c }
}

// WithDialRewrite interposes on address resolution: whenever the member
// `from` dials toward `to`, the hook may substitute the address (e.g. a
// conformancetest.SeverRelay's) for the member's real one. Tests use it to
// make specific directed links sever while the rest of the mesh stays clean.
func WithDialRewrite(f func(from, to ident.ObjectID, addr string) string) TCPDirOption {
	return func(d *TCPDirectory) { d.rewrite = f }
}

// TCPDirectory is the membership service over real sockets: each bound
// member gets its own TCP fabric (own listener, own address space — the
// paper's §2.1 "disjoint address spaces" made literal even inside one test
// process), and members find each other through the directory's shared
// address book at dial time. It implements Binder, so RawTransport and
// R3Transport — and therefore the whole resolution protocol — run over it
// unchanged.
type TCPDirectory struct {
	codec   transport.Codec
	rewrite func(from, to ident.ObjectID, addr string) string

	mu      sync.Mutex
	fabrics map[ident.ObjectID]*transport.TCP
	book    map[ident.ObjectID]string
	closed  bool
}

// NewTCPDirectory creates an empty membership service.
func NewTCPDirectory(opts ...TCPDirOption) *TCPDirectory {
	d := &TCPDirectory{
		fabrics: make(map[ident.ObjectID]*transport.TCP),
		book:    make(map[ident.ObjectID]string),
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Bind implements Binder: the member gets a fresh loopback fabric, joins the
// address book and is returned a port whose Close tears its fabric down.
func (d *TCPDirectory) Bind(obj ident.ObjectID, fn transport.Handler, stopped func()) (Port, error) {
	d.mu.Lock()
	err := d.bindErr(obj)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}

	fab, err := transport.NewTCP(transport.TCPOptions{
		Codec: tcpCodec{inner: d.codec},
		Resolve: func(to ident.ObjectID) (string, error) {
			return d.resolve(obj, to)
		},
	})
	if err != nil {
		return nil, err
	}
	port, err := fab.BindFunc(obj, fn, stopped)
	if err != nil {
		_ = fab.Close()
		return nil, err
	}

	// Listening happened outside the lock, so ask again: the directory may
	// have closed, or a concurrent Bind of the same member may have won.
	d.mu.Lock()
	if err = d.bindErr(obj); err == nil {
		d.fabrics[obj] = fab
		d.book[obj] = fab.Addr()
	}
	d.mu.Unlock()
	if err != nil {
		_ = fab.Close()
		return nil, err
	}
	return &tcpDirPort{TCPPort: port, fabric: fab}, nil
}

// bindErr says why obj cannot join the address book right now (nil when it
// can). The caller holds d.mu.
func (d *TCPDirectory) bindErr(obj ident.ObjectID) error {
	if d.closed {
		return transport.ErrClosed
	}
	if _, dup := d.book[obj]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, obj)
	}
	return nil
}

// resolve maps a destination member to the address the `from` member should
// dial — its live listener — applying the rewrite hook.
func (d *TCPDirectory) resolve(from, to ident.ObjectID) (string, error) {
	d.mu.Lock()
	addr, ok := d.book[to]
	d.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownMember, to)
	}
	if d.rewrite != nil {
		addr = d.rewrite(from, to, addr)
	}
	return addr, nil
}

// Members returns the sorted identifiers of every bound member — the closed
// group view.
func (d *TCPDirectory) Members() []ident.ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ident.ObjectID, 0, len(d.book))
	for obj := range d.book {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Close tears down every member fabric still standing (ports closed through
// their transports have already removed theirs — fabric Close is
// idempotent).
func (d *TCPDirectory) Close() {
	d.mu.Lock()
	d.closed = true
	fabrics := make([]*transport.TCP, 0, len(d.fabrics))
	for _, f := range d.fabrics {
		fabrics = append(fabrics, f)
	}
	d.mu.Unlock()
	for _, f := range fabrics {
		_ = f.Close()
	}
}

// tcpDirPort is a member's attachment: the fabric is private to the member,
// so closing the port closes the whole fabric (listener included).
type tcpDirPort struct {
	*transport.TCPPort
	fabric *transport.TCP
}

func (p *tcpDirPort) Close() { _ = p.fabric.Close() }

// Tagged byte layout the group's socket traffic uses. The codec must turn
// every message the transports emit — reliable-layer envelopes and bare
// messages alike — into self-describing bytes, because a socket carries no
// Go types.
const (
	tagEnvelope = 'E'
	tagBytes    = 'B'
	tagString   = 'S'
	tagNil      = 'N'
)

// tcpCodec is the group's socket layout, the codec of every member fabric: an
// envelope's sequencing header goes first, then the content, tagged: the
// body through the inner codec when that translates the message (the header
// shows it the message it wraps), else the payload's own bytes. Every
// message is translated, so its Size never says no. Bodies take no
// intermediate slice: the inner codec appends straight into the message's
// one buffer and decodes straight out of the frame body.
type tcpCodec struct {
	inner transport.Codec
}

var _ transport.Codec = tcpCodec{}

// content settles how m's content is laid out after the header: its tag,
// its length, and whether it is the body through the inner codec.
func (c tcpCodec) content(m transport.Message) (tag byte, n int, body bool, err error) {
	if c.inner != nil {
		if n, ok := c.inner.Size(unwrap(m)); ok {
			return tagBytes, n, true, nil
		}
	}
	switch p := m.Payload.(type) {
	case []byte:
		return tagBytes, len(p), false, nil
	case string:
		return tagString, len(p), false, nil
	case nil:
		return tagNil, 0, false, nil
	}
	return 0, 0, false, fmt.Errorf("group: tcp payload must be []byte, string or nil, got %T", m.Payload)
}

// Size implements transport.Codec: the exact length Append lays m out in.
// A payload Append refuses is sized as empty.
func (c tcpCodec) Size(m transport.Message) (int, bool) {
	tag, n, _, _ := c.content(m)
	size := 1 + n
	if tag != tagNil {
		size += uvarintLen(uint64(n))
	}
	if m.Kind == wireKind {
		h := m.Header
		size += 2 + varintLen(int64(m.From)) + varintLen(int64(m.Action)) +
			uvarintLen(h.Seq) + uvarintLen(h.Ack) + uvarintLen(uint64(len(h.Kind))) + len(h.Kind)
	}
	return size, true
}

// Append implements transport.Codec.
func (c tcpCodec) Append(dst []byte, m transport.Message) ([]byte, error) {
	tag, n, body, err := c.content(m)
	if err != nil {
		return dst, err
	}
	if m.Kind == wireKind {
		h := m.Header
		dst = append(dst, tagEnvelope, boolByte(h.IsAck))
		dst = binary.AppendVarint(dst, int64(m.From))
		dst = binary.AppendVarint(dst, int64(m.Action))
		dst = binary.AppendUvarint(dst, h.Seq)
		dst = binary.AppendUvarint(dst, h.Ack)
		dst = binary.AppendUvarint(dst, uint64(len(h.Kind)))
		dst = append(dst, h.Kind...)
	}
	dst = append(dst, tag)
	if tag != tagNil {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	if body {
		return c.inner.Append(dst, unwrap(m))
	}
	switch p := m.Payload.(type) {
	case []byte:
		dst = append(dst, p...)
	case string:
		dst = append(dst, p...)
	}
	return dst, nil
}

// Decode implements transport.Codec. A []byte payload in the result is a
// sub-slice of b, not a copy: the fabric hands over one buffer per frame and
// never reuses it. An envelope's sender and action must be the frame's.
func (c tcpCodec) Decode(m transport.Message, b []byte) (transport.Message, error) {
	if len(b) == 0 {
		return m, fmt.Errorf("group: empty tcp payload")
	}
	if (b[0] == tagEnvelope) != (m.Kind == wireKind) {
		return m, fmt.Errorf("group: %s frame with tag %q", m.Kind, b[0])
	}
	rest := b
	if b[0] == tagEnvelope {
		var err error
		if rest, err = decodeHeader(&m, b); err != nil {
			return m, err
		}
	}
	if len(rest) == 0 {
		return m, fmt.Errorf("group: missing payload tag")
	}
	tag, rest := rest[0], rest[1:]
	if tag == tagNil {
		if len(rest) != 0 {
			return m, fmt.Errorf("group: %d trailing bytes after payload", len(rest))
		}
		return m, nil
	}
	n, rest, ok := readUvarint(rest)
	if !ok || n != uint64(len(rest)) {
		return m, fmt.Errorf("group: bad payload length")
	}
	switch {
	case tag == tagBytes && c.inner != nil && translates(c.inner, m):
		d, err := c.inner.Decode(unwrap(m), rest)
		d.Kind = m.Kind
		return d, err
	case tag == tagBytes:
		m.Payload = rest
	case tag == tagString:
		m.Payload = string(rest)
	default:
		return m, fmt.Errorf("group: unknown payload tag %q", tag)
	}
	return m, nil
}

// translates reports whether inner translates m's body; the body plays no
// part in the answer (transport.Codec), so the header alone asks.
func translates(inner transport.Codec, m transport.Message) bool {
	_, ok := inner.Size(unwrap(m))
	return ok
}

// decodeHeader reads an envelope's sequencing header from b into m's Header
// and returns what follows it.
func decodeHeader(m *transport.Message, b []byte) ([]byte, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("group: truncated envelope")
	}
	h := transport.Header{IsAck: b[1] != 0}
	rest := b[2:]
	from, n := binary.Varint(rest)
	if n <= 0 || ident.ObjectID(from) != m.From {
		return nil, fmt.Errorf("group: bad envelope sender")
	}
	rest = rest[n:]
	action, n := binary.Varint(rest)
	if n <= 0 || ident.ActionID(action) != m.Action {
		return nil, fmt.Errorf("group: bad envelope action")
	}
	rest = rest[n:]
	var ok bool
	if h.Seq, rest, ok = readUvarint(rest); !ok {
		return nil, fmt.Errorf("group: bad envelope seq")
	}
	if h.Ack, rest, ok = readUvarint(rest); !ok {
		return nil, fmt.Errorf("group: bad envelope ack")
	}
	var kindLen uint64
	if kindLen, rest, ok = readUvarint(rest); !ok || kindLen > uint64(len(rest)) {
		return nil, fmt.Errorf("group: bad envelope kind")
	}
	h.Kind = frame.Intern(rest[:kindLen])
	m.Header = h
	return rest[kindLen:], nil
}

func readUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
