//go:build !race

package transport_test

import (
	"net"
	"testing"

	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestTCPRemoteSendAllocs pins a warm remote Send of a wire-encoded protocol
// Exception at zero allocations: the codec encodes the body straight into the
// peer's pending frames. The peer is a bare listener that reads into a buffer
// of its own, so only the sending fabric's work is counted. (Not built under
// the race detector, whose instrumentation allocates on its own.)
func TestTCPRemoteSendAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	fab, err := transport.NewTCP(transport.TCPOptions{Codec: wire.Codec{}})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	fab.SetPeer(2, ln.Addr().String())
	exc := protocol.Msg{Kind: protocol.KindException, Action: 7,
		Path: []ident.ActionID{3, 7}, From: 1, Exc: "E1"}
	m := transport.Message{From: 1, To: 2, Kind: exc.Kind, Action: 3, Body: exc.Body()}
	send := func() {
		if err := fab.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // dial, and grow the peer's buffers
		send()
	}
	if avg := testing.AllocsPerRun(1000, send); avg != 0 {
		t.Fatalf("remote send: %v allocs/op, want 0", avg)
	}
}
