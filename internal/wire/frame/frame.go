// Package frame defines the length-prefixed wire framing the TCP transport
// backend speaks on its net.Conn streams. A frame is one transport-layer
// message: the (from, to) object pair, the message kind and an opaque payload
// that has already been through the transport's codec seam (package wire's
// protocol-message codec, for protocol traffic).
//
// The package is deliberately a leaf — it depends only on ident — so the
// transport layer can frame and deframe without importing the
// protocol-message codec (which itself sits above the transport layer).
//
// Stream layout:
//
//	[4-byte big-endian body length][body]
//
// Body layout (all integers varint/uvarint encoded):
//
//	version byte | flags byte | From | To | [Action] | len(Kind) Kind | len(Payload) Payload
//
// Flags bit 0 records whether the payload was a Go string (rather than a
// byte slice) at the sending transport boundary, so the receiving side can
// restore the exact payload type even with no codec installed. Flags bit 1
// records the presence of the optional Action routing tag (varint, between
// To and the kind): untagged frames encode exactly as before the tag
// existed, so old frame corpora still decode.
//
// Decoding is defensive: truncated length prefixes, short bodies, oversized
// frames and trailing garbage all return errors, never panic, and never
// allocate more than MaxFrameSize bytes.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/ident"
)

// Version identifies the framing format.
const Version byte = 1

// MaxFrameSize bounds the body length a frame may declare. A peer announcing
// a bigger frame is malformed (or malicious); readers reject it before
// allocating.
const MaxFrameSize = 1 << 20

// headerSize is the byte length of the frame length prefix.
const headerSize = 4

// Framing errors.
var (
	// ErrFrameTooLarge is returned when a length prefix exceeds MaxFrameSize
	// or an encoded frame would.
	ErrFrameTooLarge = errors.New("frame: frame exceeds size limit")
	// ErrShortFrame is returned when a stream ends inside a frame.
	ErrShortFrame = errors.New("frame: truncated frame")
	// ErrBadVersion is returned when a frame declares an unknown version.
	ErrBadVersion = errors.New("frame: unknown framing version")
	// ErrTrailingBytes is returned when a frame body has bytes after the
	// payload.
	ErrTrailingBytes = errors.New("frame: trailing bytes after payload")
	// ErrEmptyFrame is returned when a length prefix declares a zero-length
	// body.
	ErrEmptyFrame = errors.New("frame: empty frame body")
)

// flag bits.
const (
	flagStringPayload byte = 1 << 0
	flagAction        byte = 1 << 1
)

// Frame is one transport message in its on-the-wire shape.
type Frame struct {
	From ident.ObjectID
	To   ident.ObjectID
	Kind string
	// Action, when non-zero, is the top-level action the message belongs
	// to. It is carried in the envelope so a multiplexing receiver can
	// route the frame without decoding the payload.
	Action ident.ActionID
	// Payload is the message payload after the transport codec ran. In a
	// decoded frame it is a sub-slice of the buffer that was decoded.
	Payload []byte
	// StringPayload records that the payload was a string (not a byte
	// slice) before framing.
	StringPayload bool
}

// Append serialises f (length prefix included) onto dst and returns the
// extended slice.
//
//caa:noalloc
func Append(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	dst, err := AppendHead(dst, f, len(f.Payload))
	if err != nil {
		return dst, err
	}
	dst = append(dst, f.Payload...)
	return Seal(dst, start)
}

// AppendHead appends the part of f's frame that comes before the payload's
// bytes, from the length prefix (left for Seal to fill in) to the length n of
// a payload the caller appends next, so a payload can be encoded in place.
// f.Payload is not read.
//
//caa:noalloc
func AppendHead(dst []byte, f Frame, n int) ([]byte, error) {
	if len(f.Kind)+n+headerSize+32 > MaxFrameSize {
		//protolint:allow noalloc oversize-frame failure path, never taken by well-formed traffic
		return dst, fmt.Errorf("%w: kind %d + payload %d bytes", ErrFrameTooLarge, len(f.Kind), n)
	}
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched by Seal
	var flags byte
	if f.StringPayload {
		flags |= flagStringPayload
	}
	if f.Action != 0 {
		flags |= flagAction
	}
	dst = append(dst, Version, flags)
	dst = binary.AppendVarint(dst, int64(f.From))
	dst = binary.AppendVarint(dst, int64(f.To))
	if f.Action != 0 {
		dst = binary.AppendVarint(dst, int64(f.Action))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Kind)))
	dst = append(dst, f.Kind...)
	dst = binary.AppendUvarint(dst, uint64(n))
	return dst, nil
}

// Seal fills in the length prefix of the frame AppendHead began at
// dst[start:], once its payload has been appended, and returns dst.
//
//caa:noalloc
func Seal(dst []byte, start int) ([]byte, error) {
	body := len(dst) - start - headerSize
	if body > MaxFrameSize {
		//protolint:allow noalloc oversize-frame failure path, never taken by well-formed traffic
		return dst[:start], fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, body)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// Encode serialises f into a fresh buffer, length prefix included.
func Encode(f Frame) ([]byte, error) {
	return Append(make([]byte, 0, headerSize+16+len(f.Kind)+len(f.Payload)), f)
}

// Write frames f onto w in one Write call (so concurrent writers that
// serialise per connection never interleave partial frames).
func Write(w io.Writer, f Frame) error {
	buf, err := Encode(f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read reads one frame from r. io.EOF is returned verbatim only on a clean
// boundary (no bytes of the next frame read); a stream ending mid-frame
// yields ErrShortFrame.
func Read(r io.Reader) (Frame, error) {
	n, err := readPrefix(r)
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: length prefix: %v", ErrShortFrame, err)
	}
	if n == 0 {
		return Frame{}, ErrEmptyFrame
	}
	if n > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("%w: body: %v", ErrShortFrame, err)
	}
	return Decode(body)
}

// readPrefix reads the length prefix with io.ReadFull's errors. A
// bufio.Reader's prefix is read in its own buffer: an array handed to
// io.ReadFull escapes through the io.Reader, one allocation per frame.
func readPrefix(r io.Reader) (uint32, error) {
	if br, ok := r.(*bufio.Reader); ok {
		b, err := br.Peek(headerSize)
		switch {
		case err == nil:
			_, _ = br.Discard(headerSize) // Peek has buffered them
			return binary.BigEndian.Uint32(b), nil
		case err == io.EOF && len(b) > 0:
			return 0, io.ErrUnexpectedEOF
		default:
			return 0, err
		}
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(hdr[:]), nil
}

// Decode parses one frame body (without the length prefix). The returned
// Payload is a sub-slice of b, not a copy: the caller hands the buffer over
// (Read allocates one per frame and never touches it again) and must copy
// first if it intends to reuse b. Kind is interned when well known (Intern),
// so decoding protocol traffic allocates nothing.
func Decode(b []byte) (Frame, error) {
	var f Frame
	if len(b) < 2 {
		return f, fmt.Errorf("%w: body %d bytes", ErrShortFrame, len(b))
	}
	if b[0] != Version {
		return f, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	flags, rest := b[1], b[2:]
	f.StringPayload = flags&flagStringPayload != 0

	from, n := binary.Varint(rest)
	if n <= 0 {
		return f, fmt.Errorf("%w: from", ErrShortFrame)
	}
	f.From, rest = ident.ObjectID(from), rest[n:]
	to, n := binary.Varint(rest)
	if n <= 0 {
		return f, fmt.Errorf("%w: to", ErrShortFrame)
	}
	f.To, rest = ident.ObjectID(to), rest[n:]

	if flags&flagAction != 0 {
		action, n := binary.Varint(rest)
		if n <= 0 {
			return f, fmt.Errorf("%w: action", ErrShortFrame)
		}
		f.Action, rest = ident.ActionID(action), rest[n:]
	}

	kindLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return f, fmt.Errorf("%w: kind length", ErrShortFrame)
	}
	rest = rest[n:]
	if kindLen > uint64(len(rest)) {
		return f, fmt.Errorf("%w: kind length %d exceeds body", ErrShortFrame, kindLen)
	}
	f.Kind, rest = Intern(rest[:kindLen]), rest[kindLen:]

	payloadLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return f, fmt.Errorf("%w: payload length", ErrShortFrame)
	}
	rest = rest[n:]
	if payloadLen > uint64(len(rest)) {
		return f, fmt.Errorf("%w: payload length %d exceeds body", ErrShortFrame, payloadLen)
	}
	if payloadLen > 0 {
		// Full slice expression: an append through the payload must not run
		// into whatever follows it in the body buffer.
		f.Payload = rest[:payloadLen:payloadLen]
	}
	if rest = rest[payloadLen:]; len(rest) != 0 {
		return f, fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(rest))
	}
	return f, nil
}

// wellKnownKinds are the message kinds the socket path carries on every
// frame: the reliable layer's envelope kind and the five protocol kinds.
// They are spelled out because this package is a leaf (group and protocol
// both sit above the transport that imports it); tests in package wire and
// package group pin them to the constants they mirror.
var wellKnownKinds = [...]string{
	"group.envelope",
	"Exception", "HaveNested", "NestedCompleted", "ACK", "Commit",
}

// Intern returns b as a string, without allocating when b spells one of the
// well-known kinds.
func Intern(b []byte) string {
	for _, kind := range wellKnownKinds {
		if string(b) == kind { // compared in place, no conversion
			return kind
		}
	}
	return string(b)
}
