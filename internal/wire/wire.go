// Package wire serialises protocol messages for transmission between the
// simulated network nodes. The paper's setting is nodes with disjoint
// address spaces that "must communicate by the exchange of messages over
// relatively narrow bandwidth communication channels"; encoding every
// protocol message to bytes (rather than passing Go pointers through the
// simulator) keeps the implementation honest about that boundary and gives
// the benchmarks a realistic per-message cost.
//
// The format is a compact hand-rolled binary encoding (version byte, message
// kind, varint-encoded identifiers, length-prefixed strings). EncodeGob /
// DecodeGob provide a stdlib-gob alternative used by the codec benchmarks.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Format identifies the codec version.
const Format byte = 1

// Codec errors.
var (
	ErrShortMessage  = errors.New("wire: short message")
	ErrBadFormat     = errors.New("wire: unknown format version")
	ErrBadKind       = errors.New("wire: unknown message kind")
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")
)

// kindCode maps a message kind to its code on the wire (0: unknown), and
// kindName maps it back to the constant itself, so decoding interns the kind.
func kindCode(kind string) byte {
	switch kind {
	case protocol.KindException:
		return 1
	case protocol.KindHaveNested:
		return 2
	case protocol.KindNestedCompleted:
		return 3
	case protocol.KindAck:
		return 4
	case protocol.KindCommit:
		return 5
	}
	return 0
}

func kindName(code byte) string {
	switch code {
	case 1:
		return protocol.KindException
	case 2:
		return protocol.KindHaveNested
	case 3:
		return protocol.KindNestedCompleted
	case 4:
		return protocol.KindAck
	case 5:
		return protocol.KindCommit
	}
	return ""
}

// Size returns the exact number of bytes Append adds for m, so callers that
// embed a message in a larger layout can write its length first and size
// their buffer once.
func Size(m protocol.Msg) int {
	n := 2 + varintLen(int64(m.Action)) + uvarintLen(uint64(len(m.Path))) +
		varintLen(int64(m.From)) + uvarintLen(uint64(len(m.Exc))) + len(m.Exc)
	for _, a := range m.Path {
		n += varintLen(int64(a))
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// Append serialises m onto dst and returns the extended slice.
//
//caa:noalloc
func Append(dst []byte, m protocol.Msg) ([]byte, error) {
	code := kindCode(m.Kind)
	if code == 0 {
		//protolint:allow noalloc unknown-kind failure path, never taken by the engine's messages
		return dst, fmt.Errorf("%w: %q", ErrBadKind, m.Kind)
	}
	dst = append(dst, Format, code)
	dst = binary.AppendVarint(dst, int64(m.Action))
	dst = binary.AppendUvarint(dst, uint64(len(m.Path)))
	for _, a := range m.Path {
		dst = binary.AppendVarint(dst, int64(a))
	}
	dst = binary.AppendVarint(dst, int64(m.From))
	dst = binary.AppendUvarint(dst, uint64(len(m.Exc)))
	dst = append(dst, m.Exc...)
	return dst, nil
}

// Encode serialises a protocol message into a fresh, exactly sized buffer.
func Encode(m protocol.Msg) ([]byte, error) {
	b, err := Append(make([]byte, 0, Size(m)), m)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Decode parses a message encoded by Encode. Nothing in the result aliases
// b: the kind is the protocol constant, Path and Exc are copies.
func Decode(b []byte) (protocol.Msg, error) {
	var m protocol.Msg
	if len(b) < 2 {
		return m, ErrShortMessage
	}
	if b[0] != Format {
		return m, fmt.Errorf("%w: %d", ErrBadFormat, b[0])
	}
	if m.Kind = kindName(b[1]); m.Kind == "" {
		return m, fmt.Errorf("%w: code %d", ErrBadKind, b[1])
	}
	rest := b[2:]

	action, n := binary.Varint(rest)
	if n <= 0 {
		return m, fmt.Errorf("%w: action", ErrShortMessage)
	}
	m.Action, rest = ident.ActionID(action), rest[n:]

	pathLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return m, fmt.Errorf("%w: path length", ErrShortMessage)
	}
	rest = rest[n:]
	// Every element takes at least one byte, which bounds the allocation.
	if pathLen > uint64(len(rest)) {
		return m, fmt.Errorf("%w: path length %d exceeds payload", ErrShortMessage, pathLen)
	}
	if pathLen > 0 {
		m.Path = make([]ident.ActionID, pathLen)
		for i := range m.Path {
			v, n := binary.Varint(rest)
			if n <= 0 {
				return m, fmt.Errorf("%w: path[%d]", ErrShortMessage, i)
			}
			m.Path[i], rest = ident.ActionID(v), rest[n:]
		}
	}

	from, n := binary.Varint(rest)
	if n <= 0 {
		return m, fmt.Errorf("%w: from", ErrShortMessage)
	}
	m.From, rest = ident.ObjectID(from), rest[n:]

	excLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return m, fmt.Errorf("%w: exc length", ErrShortMessage)
	}
	rest = rest[n:]
	if excLen > uint64(len(rest)) {
		return m, fmt.Errorf("%w: exc length %d exceeds payload", ErrShortMessage, excLen)
	}
	m.Exc, rest = string(rest[:excLen]), rest[excLen:]
	if len(rest) != 0 {
		return m, ErrTrailingBytes
	}
	return m, nil
}

// Codec plugs the binary encoding into the transport layer's codec seam
// (transport.Codec): the body of every protocol message, told by its kind,
// crosses the fabric as bytes and is decoded back into a body of its own, so
// neither side ever shares a Go pointer with its peer. Other messages (group
// control traffic) pass untranslated. The bytes are the message's whole
// encoding, kind and sender included, so a decoded body is checked against
// the envelope it arrived in.
type Codec struct{}

var _ transport.Codec = Codec{}

// ErrEnvelope reports encoded bytes whose kind or sender disagrees with the
// envelope that carried them.
var ErrEnvelope = errors.New("wire: message disagrees with its envelope")

// Size implements transport.Codec: the exact length Append adds for a
// protocol message, false for any other kind.
func (Codec) Size(m transport.Message) (int, bool) {
	if kindCode(m.Kind) == 0 {
		return 0, false
	}
	return Size(protocol.MsgOf(m.Kind, m.From, m.Body)), true
}

// Append implements transport.Codec.
func (Codec) Append(dst []byte, m transport.Message) ([]byte, error) {
	return Append(dst, protocol.MsgOf(m.Kind, m.From, m.Body))
}

// Decode implements transport.Codec; the body does not alias b.
func (Codec) Decode(m transport.Message, b []byte) (transport.Message, error) {
	pm, err := Decode(b)
	if err != nil {
		return m, err
	}
	if pm.Kind != m.Kind || pm.From != m.From {
		return m, fmt.Errorf("%w: %s from %s in a %s envelope from %s", ErrEnvelope, pm.Kind, pm.From, m.Kind, m.From)
	}
	m.Body = pm.Body()
	return m, nil
}

// EncodeGob serialises a message with encoding/gob (comparison codec).
func EncodeGob(m protocol.Msg) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeGob parses a message encoded by EncodeGob.
func DecodeGob(b []byte) (protocol.Msg, error) {
	var m protocol.Msg
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m)
	return m, err
}
