package group

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/wire/frame"
)

// TCPDirOption configures a TCPDirectory.
type TCPDirOption func(*TCPDirectory)

// WithTCPCodec forces every application payload through the given
// encode/decode boundary before it enters a socket, mirroring WithCodec on
// the netsim directory. Post-encode payloads must be []byte, string or nil —
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
		Codec: newTCPCodec(d.codec),
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
// every payload the transports emit — reliable-layer envelopes and bare
// application payloads alike — into self-describing bytes, because a socket
// carries no Go types.
const (
	tagEnvelope = 'E'
	tagBytes    = 'B'
	tagString   = 'S'
	tagNil      = 'N'
)

// tcpCodec serialises group traffic for a socket fabric: envelopes keep
// their sequencing metadata native to the layout while their application
// payload goes through the inner codec; bare payloads go through the inner
// codec directly. It is the socket-world counterpart of envelopeCodec.
type tcpCodec struct {
	inner transport.Codec
	// place is inner's in-place side when it has one: the payload is then
	// encoded straight into the message's one buffer and decoded straight
	// out of the frame body, with no intermediate slice on either side.
	place inPlaceCodec
}

// inPlaceCodec is what an inner codec offers on top of transport.Codec when
// it can work on a caller's buffer (wire.Codec does).
type inPlaceCodec interface {
	// EncodedSize reports the exact length AppendEncoded adds for payload;
	// ok is false for a payload the codec passes through untranslated.
	EncodedSize(payload any) (n int, ok bool)
	// AppendEncoded appends the encoding of a payload EncodedSize accepted.
	AppendEncoded(dst []byte, payload any) ([]byte, error)
	// DecodeBytes is Decode for bytes off the wire; it must not retain b.
	DecodeBytes(b []byte) (any, error)
}

func newTCPCodec(inner transport.Codec) tcpCodec {
	place, _ := inner.(inPlaceCodec)
	return tcpCodec{inner: inner, place: place}
}

// Encode implements transport.Codec.
func (c tcpCodec) Encode(v any) (any, error) {
	b, err := c.marshal(v)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// marshal lays one message out in one exactly sized buffer: the envelope
// header when v is an envelope, then the tagged payload.
func (c tcpCodec) marshal(v any) ([]byte, error) {
	env, isEnv := v.(envelope)
	if isEnv {
		v = env.Payload
	}

	// Settle the payload's tag and length first, so the buffer is sized once.
	tag, n, inPlace := byte(tagNil), 0, false
	if c.place != nil && v != nil {
		n, inPlace = c.place.EncodedSize(v)
	}
	if inPlace {
		tag = tagBytes
	} else {
		if c.inner != nil && v != nil {
			ev, err := c.inner.Encode(v)
			if err != nil {
				return nil, err
			}
			v = ev
		}
		switch p := v.(type) {
		case []byte:
			tag, n = tagBytes, len(p)
		case string:
			tag, n = tagString, len(p)
		case nil:
		default:
			return nil, fmt.Errorf("group: tcp payload must encode to []byte or string, got %T", v)
		}
	}

	// The fixed-width-bounded fields go through a stack scratch, which gives
	// their exact length without a second pass over the varints.
	var scratch [2 + 6*binary.MaxVarintLen64 + 1]byte
	head := scratch[:0]
	if isEnv {
		head = append(head, tagEnvelope, boolByte(env.IsAck))
		head = binary.AppendVarint(head, int64(env.From))
		head = binary.AppendVarint(head, int64(env.Action))
		head = binary.AppendUvarint(head, env.Seq)
		head = binary.AppendUvarint(head, env.Ack)
		head = binary.AppendUvarint(head, uint64(len(env.Kind)))
	}
	kindAt := len(head)
	head = append(head, tag)
	if tag != tagNil {
		head = binary.AppendUvarint(head, uint64(n))
	}

	buf := make([]byte, 0, len(head)+len(env.Kind)+n)
	buf = append(buf, head[:kindAt]...)
	buf = append(buf, env.Kind...)
	buf = append(buf, head[kindAt:]...)
	if inPlace {
		return c.place.AppendEncoded(buf, v)
	}
	switch p := v.(type) {
	case []byte:
		buf = append(buf, p...)
	case string:
		buf = append(buf, p...)
	}
	return buf, nil
}

// Decode implements transport.Codec. A bare or enveloped []byte payload in
// the result is a sub-slice of v, not a copy: the fabric hands over one
// buffer per frame and never reuses it.
func (c tcpCodec) Decode(v any) (any, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("group: tcp codec expects bytes off the wire, got %T", v)
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("group: empty tcp payload")
	}
	if b[0] != tagEnvelope {
		val, rest, err := c.decodeTagged(b)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("group: %d trailing bytes after payload", len(rest))
		}
		return val, nil
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("group: truncated envelope")
	}
	env := envelope{IsAck: b[1] != 0}
	rest := b[2:]
	from, n := binary.Varint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("group: bad envelope sender")
	}
	env.From = ident.ObjectID(from)
	rest = rest[n:]
	action, n := binary.Varint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("group: bad envelope action")
	}
	env.Action = ident.ActionID(action)
	rest = rest[n:]
	if env.Seq, rest, ok = readUvarint(rest); !ok {
		return nil, fmt.Errorf("group: bad envelope seq")
	}
	if env.Ack, rest, ok = readUvarint(rest); !ok {
		return nil, fmt.Errorf("group: bad envelope ack")
	}
	var kindLen uint64
	if kindLen, rest, ok = readUvarint(rest); !ok || kindLen > uint64(len(rest)) {
		return nil, fmt.Errorf("group: bad envelope kind")
	}
	env.Kind = frame.Intern(rest[:kindLen])
	payload, rest, err := c.decodeTagged(rest[kindLen:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("group: %d trailing bytes after envelope", len(rest))
	}
	env.Payload = payload
	return env, nil
}

// decodeTagged reads one tagged primitive and hands it to the inner codec.
func (c tcpCodec) decodeTagged(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("group: missing payload tag")
	}
	tag, rest := b[0], b[1:]
	if tag == tagNil {
		return nil, rest, nil
	}
	n, rest, ok := readUvarint(rest)
	if !ok || n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("group: bad payload length")
	}
	raw, rest := rest[:n:n], rest[n:]
	if tag == tagBytes && c.place != nil {
		v, err := c.place.DecodeBytes(raw)
		if err != nil {
			return nil, nil, err
		}
		return v, rest, nil
	}
	var v any
	switch tag {
	case tagBytes:
		v = raw
	case tagString:
		v = string(raw)
	default:
		return nil, nil, fmt.Errorf("group: unknown payload tag %q", tag)
	}
	if c.inner != nil {
		dv, err := c.inner.Decode(v)
		if err != nil {
			return nil, nil, err
		}
		v = dv
	}
	return v, rest, nil
}

func readUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
