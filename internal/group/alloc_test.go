//go:build !race

package group

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// codecSeam holds the codec the way the fabric does, behind the interface:
// a package-level variable, so the compiler cannot see through it and keep
// the boxed result on the stack.
var codecSeam transport.Codec

// TestTCPCodecAllocs gates the socket codec as core.TransportTCP configures
// it (wire.Codec inside), as counts per call. (Not built under the race
// detector, whose instrumentation allocates on its own.)
func TestTCPCodecAllocs(t *testing.T) {
	c := newTCPCodec(wire.Codec{})
	codecSeam = c
	exception := protocol.Msg{Kind: protocol.KindException, Action: 3, From: 7, Exc: "left_engine_exception"}
	ack := protocol.Msg{Kind: protocol.KindAck, Action: 3, From: 7}
	for _, tc := range []struct {
		name   string
		env    envelope
		decode float64
	}{
		// Decode: the envelope and the message in it, each boxed once, and
		// the exception's name when there is one.
		{"exception", envelope{From: 7, Kind: protocol.KindException, Action: 3, Payload: exception, Seq: 9, Ack: 8}, 3},
		{"ack", envelope{From: 7, Kind: protocol.KindAck, Action: 3, Payload: ack, Seq: 9, Ack: 8}, 2},
		{"stand-alone ack", envelope{From: 7, IsAck: true, Ack: 8}, 1},
	} {
		var in any = tc.env
		b, err := c.marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if cap(b) != len(b) {
			t.Errorf("%s: marshal filled %d bytes of a %d-byte buffer, want an exact fit", tc.name, len(b), cap(b))
		}
		// The message is laid out in one buffer...
		if avg := testing.AllocsPerRun(500, func() {
			if _, err := c.marshal(in); err != nil {
				t.Fatal(err)
			}
		}); avg > 1 {
			t.Errorf("%s: marshal %v allocs/op, want at most 1", tc.name, avg)
		}
		// ...and transport.Codec returns it as an `any`, which boxes the
		// slice header: the second allocation is the seam's, 24 bytes.
		if avg := testing.AllocsPerRun(500, func() {
			if _, err := codecSeam.Encode(in); err != nil {
				t.Fatal(err)
			}
		}); avg > 2 {
			t.Errorf("%s: Encode through the codec seam %v allocs/op, want at most 2", tc.name, avg)
		}
		var off any = b
		if avg := testing.AllocsPerRun(500, func() {
			if _, err := codecSeam.Decode(off); err != nil {
				t.Fatal(err)
			}
		}); avg > tc.decode {
			t.Errorf("%s: Decode %v allocs/op, want at most %v", tc.name, avg, tc.decode)
		}
	}
}
