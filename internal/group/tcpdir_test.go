package group

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
	"repro/internal/wire"
	"repro/internal/wire/frame"
)

// encode lays m out through c as a fabric does, checking that Size was exact.
func encode(t *testing.T, c transport.Codec, m transport.Message) []byte {
	t.Helper()
	n, ok := c.Size(m)
	if !ok {
		t.Fatalf("%+v: codec does not translate it", m)
	}
	b, err := c.Append(make([]byte, 0, n), m)
	if err != nil {
		t.Fatalf("%+v: Append: %v", m, err)
	}
	if len(b) != n || cap(b) != n {
		t.Fatalf("%+v: Size said %d, Append filled %d of %d", m, n, len(b), cap(b))
	}
	return b
}

// envelopeOf is what a receiving fabric knows of m before decoding: the frame.
func envelopeOf(m transport.Message) transport.Message {
	return transport.Message{From: m.From, To: m.To, Kind: m.Kind, Action: m.Action}
}

func TestTCPCodecRoundTrip(t *testing.T) {
	c := tcpCodec{}
	cases := []transport.Message{
		{From: 3, Kind: wireKind, Header: transport.Header{Kind: "app.kind", Seq: 7, Ack: 2}, Payload: []byte("data")},
		{From: -9, Kind: wireKind, Header: transport.Header{Seq: 1}, Payload: "text"},
		{From: 1, Kind: wireKind, Header: transport.Header{IsAck: true, Ack: 41}},
		{From: 1, Kind: "app", Payload: []byte("bare bytes")},
		{From: 1, Kind: "app", Payload: "bare string"},
		{From: 1, Kind: "app"},
	}
	for i, want := range cases {
		got, err := c.Decode(envelopeOf(want), encode(t, c, want))
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: decoded %+v, want %+v", i, got, want)
		}
	}
	if _, err := c.Append(nil, transport.Message{Kind: "app", Payload: struct{ X int }{1}}); err == nil {
		t.Error("non-serialisable payload accepted")
	}
	if _, err := c.Decode(transport.Message{Kind: "app"}, []byte{}); err == nil {
		t.Error("empty wire payload accepted")
	}
	// Mutated streams must fail cleanly, never panic.
	m := transport.Message{From: 2, Kind: wireKind, Header: transport.Header{Kind: "k", Seq: 3}, Payload: []byte("xyz")}
	enc := encode(t, c, m)
	for cut := 0; cut < len(enc); cut++ {
		_, _ = c.Decode(envelopeOf(m), enc[:cut])
	}
}

// TestTCPCodecWireFormatPinned holds the socket layout to bytes recorded
// before the codec was rebuilt around one buffer per message, and before
// messages carried their header and body by value: what a member writes, a
// member running the old code reads. Each case must decode back to the input
// from its frame envelope.
func TestTCPCodecWireFormatPinned(t *testing.T) {
	msg := protocol.Msg{Kind: protocol.KindException, Action: 300, Path: []ident.ActionID{1, 300}, From: -7, Exc: "left_engine_exception"}
	cases := []struct {
		give transport.Message
		hex  string
	}{
		{transport.Message{From: -7, Kind: wireKind, Action: 300,
			Header: transport.Header{Kind: protocol.KindException, Seq: 200, Ack: 199}, Body: msg.Body()},
			"45000dd804c801c70109457863657074696f6e421f0101d8040202d8040d156c6566745f656e67696e655f657863657074696f6e"},
		{transport.Message{From: 2, Kind: wireKind, Header: transport.Header{IsAck: true, Ack: 41}}, "450104000029004e"},
		{transport.Message{From: 3, Kind: wireKind, Header: transport.Header{Kind: "app", Seq: 1}, Payload: "text"},
			"45000600010003617070530474657874"},
		{transport.Message{From: 3, Kind: wireKind, Header: transport.Header{Kind: "app", Seq: 2}}, "450006000200036170704e"},
		{transport.Message{From: -7, Kind: protocol.KindException, Action: 300, Body: msg.Body()},
			"421f0101d8040202d8040d156c6566745f656e67696e655f657863657074696f6e"},
		{transport.Message{From: 3, Kind: "app", Payload: "bare"}, "530462617265"},
		{transport.Message{From: 3, Kind: "app"}, "4e"},
	}
	c := tcpCodec{inner: wire.Codec{}}
	for i, tc := range cases {
		enc := encode(t, c, tc.give)
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("case %d: encoded\n %s\nwant\n %s", i, got, tc.hex)
		}
		got, err := c.Decode(envelopeOf(tc.give), enc)
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, tc.give) {
			t.Errorf("case %d: decoded %+v, want %+v", i, got, tc.give)
		}
	}
	if got := frame.Intern([]byte(KindEnvelope)); got != KindEnvelope {
		t.Errorf("frame.Intern(%q) = %q", KindEnvelope, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = frame.Intern([]byte(KindEnvelope)) }); allocs != 0 {
		t.Errorf("frame.Intern(%q) allocates %v times: the literal is missing from its table", KindEnvelope, allocs)
	}
}

func TestTCPDirectoryRawTransport(t *testing.T) {
	defer conformancetest.LeakCheck(t)()
	dir := NewTCPDirectory()
	defer dir.Close()
	a, err := NewRawTransport(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewRawTransport(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if got := dir.Members(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Members() = %v", got)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(2, "msg", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case d := <-b.Recv():
			if d.From != 1 || d.Payload.(string) != fmt.Sprintf("%d", i) {
				t.Fatalf("delivery %d: %+v", i, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at message %d", i)
		}
	}
	if err := a.Send(99, "msg", "nobody"); err == nil {
		t.Error("send to unknown member succeeded")
	}
}

// TestTCPDirectoryR3OverLossyWire is the reliability proof the TCP backend
// exists for: R3Transport's retransmission/dedup layer must mask the one
// fault real sockets add, connections severed under traffic and the frames
// in flight lost with them, and still deliver exactly-once FIFO. (Drops and
// duplicates are a sender-side fault policy, masked the same way over lossy
// netsim in group_test and handler_test.)
func TestTCPDirectoryR3OverLossyWire(t *testing.T) {
	defer conformancetest.LeakCheck(t)()

	// Every directed link goes through its own severing relay: data frames
	// and acks both live dangerously. The rewrite hook runs on every address
	// resolution, so relays are memoised per directed pair.
	type link struct{ from, to ident.ObjectID }
	var relayMu sync.Mutex
	relays := make(map[link]*conformancetest.SeverRelay)
	defer func() {
		relayMu.Lock()
		defer relayMu.Unlock()
		for _, r := range relays {
			r.Close()
		}
	}()
	dir := NewTCPDirectory(WithDialRewrite(func(from, to ident.ObjectID, addr string) string {
		relayMu.Lock()
		defer relayMu.Unlock()
		if r, ok := relays[link{from, to}]; ok {
			return r.Addr()
		}
		r, err := conformancetest.NewSeverRelay(addr, 40)
		if err != nil {
			t.Errorf("relay for %v->%v: %v", from, to, err)
			return addr
		}
		relays[link{from, to}] = r
		return r.Addr()
	}))
	defer dir.Close()

	a, err := NewR3Transport(dir, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewR3Transport(dir, 2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 120
	for i := 0; i < n; i++ {
		if err := a.Send(2, "msg", fmt.Sprintf("a%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(1, "msg", fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
		// Pace the stream so frames leave in chunks of their own and the
		// relays cut the links several times under traffic.
		time.Sleep(time.Millisecond)
	}

	recv := func(tr *R3Transport, prefix string) {
		for i := 0; i < n; i++ {
			select {
			case d, ok := <-tr.Recv():
				if !ok {
					t.Errorf("%s: channel closed at %d", prefix, i)
					return
				}
				if want := fmt.Sprintf("%s%d", prefix, i); d.Payload.(string) != want {
					t.Errorf("%s: delivery %d = %q, want %q (loss, dup or reorder leaked through)",
						prefix, i, d.Payload, want)
					return
				}
			case <-time.After(20 * time.Second):
				t.Errorf("%s: timed out at message %d", prefix, i)
				return
			}
		}
	}
	done := make(chan struct{})
	go func() { recv(a, "b"); close(done) }()
	recv(b, "a")
	<-done

	relayMu.Lock()
	defer relayMu.Unlock()
	severed := 0
	for _, r := range relays {
		severed += r.Severed()
	}
	if severed < 2 {
		t.Errorf("the relays cut %d connections; the test needs several to mean anything", severed)
	}
}

// TestTCPDirectoryDuplicateBind pins the closed-group invariant.
func TestTCPDirectoryDuplicateBind(t *testing.T) {
	defer conformancetest.LeakCheck(t)()
	dir := NewTCPDirectory()
	defer dir.Close()
	if _, err := dir.Bind(1, func(transport.Message) {}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Bind(1, func(transport.Message) {}, nil); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
	dir.Close()
	if _, err := dir.Bind(2, func(transport.Message) {}, nil); err == nil {
		t.Fatal("bind after close succeeded")
	}
}
