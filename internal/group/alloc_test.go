//go:build !race

package group

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// codecSeam holds the codec the way the fabric does, behind the interface:
// a package-level variable, so the compiler cannot see through it.
var codecSeam transport.Codec

// TestTCPCodecAllocs gates the socket codec as core.TransportTCP configures
// it (wire.Codec inside), as counts per call. The message is a value on both
// sides of the bytes: encoding allocates only the message's one buffer, and
// decoding only what the body owns (the exception's name). (Not built under
// the race detector, whose instrumentation allocates on its own.)
func TestTCPCodecAllocs(t *testing.T) {
	codecSeam = tcpCodec{inner: wire.Codec{}}
	exception := protocol.Msg{Kind: protocol.KindException, Action: 3, From: 7, Exc: "left_engine_exception"}
	ack := protocol.Msg{Kind: protocol.KindAck, Action: 3, From: 7}
	for _, tc := range []struct {
		name   string
		m      transport.Message
		decode float64
	}{
		{"exception", transport.Message{From: 7, Kind: wireKind, Action: 3,
			Header: transport.Header{Kind: protocol.KindException, Seq: 9, Ack: 8}, Body: exception.Body()}, 1},
		{"ack", transport.Message{From: 7, Kind: wireKind, Action: 3,
			Header: transport.Header{Kind: protocol.KindAck, Seq: 9, Ack: 8}, Body: ack.Body()}, 0},
		{"stand-alone ack", transport.Message{From: 7, Kind: wireKind, Header: transport.Header{IsAck: true, Ack: 8}}, 0},
	} {
		b := encode(t, codecSeam, tc.m)
		if avg := testing.AllocsPerRun(500, func() {
			n, _ := codecSeam.Size(tc.m)
			if _, err := codecSeam.Append(make([]byte, 0, n), tc.m); err != nil {
				t.Fatal(err)
			}
		}); avg > 1 {
			t.Errorf("%s: Size+Append through the codec seam %v allocs/op, want at most 1", tc.name, avg)
		}
		env := envelopeOf(tc.m)
		if avg := testing.AllocsPerRun(500, func() {
			if _, err := codecSeam.Decode(env, b); err != nil {
				t.Fatal(err)
			}
		}); avg > tc.decode {
			t.Errorf("%s: Decode %v allocs/op, want at most %v", tc.name, avg, tc.decode)
		}
	}
}
