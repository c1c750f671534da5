package group

import (
	"bytes"
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

func TestTCPCodecRoundTrip(t *testing.T) {
	c := tcpCodec{}
	cases := []any{
		envelope{From: 3, Kind: "app.kind", Payload: []byte("data"), Seq: 7, Ack: 2},
		envelope{From: -9, Kind: "", Payload: "text", Seq: 1},
		envelope{From: 1, IsAck: true, Ack: 41},
		[]byte("bare bytes"),
		"bare string",
		nil,
	}
	for i, want := range cases {
		enc, err := c.Encode(want)
		if err != nil {
			t.Fatalf("case %d: Encode: %v", i, err)
		}
		got, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		switch w := want.(type) {
		case envelope:
			g, ok := got.(envelope)
			if !ok {
				t.Fatalf("case %d: decoded to %T", i, got)
			}
			if g.From != w.From || g.Kind != w.Kind || g.Seq != w.Seq || g.Ack != w.Ack || g.IsAck != w.IsAck {
				t.Errorf("case %d: metadata mismatch: got %+v want %+v", i, g, w)
			}
			switch wp := w.Payload.(type) {
			case []byte:
				if !bytes.Equal(g.Payload.([]byte), wp) {
					t.Errorf("case %d: payload mismatch", i)
				}
			default:
				if g.Payload != w.Payload {
					t.Errorf("case %d: payload %v != %v", i, g.Payload, w.Payload)
				}
			}
		case []byte:
			if !bytes.Equal(got.([]byte), w) {
				t.Errorf("case %d: bytes mismatch", i)
			}
		default:
			if got != want {
				t.Errorf("case %d: got %v want %v", i, got, want)
			}
		}
	}
	if _, err := c.Encode(envelope{Payload: struct{ X int }{1}}); err == nil {
		t.Error("non-serialisable envelope payload accepted")
	}
	if _, err := c.Decode([]byte{}); err == nil {
		t.Error("empty wire payload accepted")
	}
	// Mutated streams must fail cleanly, never panic.
	enc, err := c.Encode(envelope{From: 2, Kind: "k", Payload: []byte("xyz"), Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc.([]byte)); cut++ {
		_, _ = c.Decode(enc.([]byte)[:cut])
	}
}

// TestTCPCodecWireFormatPinned holds the socket layout to bytes recorded
// before the codec was rebuilt around one buffer per message: what a member
// writes, a member running the old code reads. Each case is encoded twice,
// through wire.Codec's in-place side and through the same codec with that
// side hidden (the path any other inner codec takes), and both must decode
// back to the input.
func TestTCPCodecWireFormatPinned(t *testing.T) {
	msg := protocol.Msg{Kind: protocol.KindException, Action: 300, Path: []ident.ActionID{1, 300}, From: -7, Exc: "left_engine_exception"}
	cases := []struct {
		give any
		hex  string
	}{
		{envelope{From: -7, Kind: protocol.KindException, Action: 300, Payload: msg, Seq: 200, Ack: 199},
			"45000dd804c801c70109457863657074696f6e421f0101d8040202d8040d156c6566745f656e67696e655f657863657074696f6e"},
		{envelope{From: 2, IsAck: true, Ack: 41}, "450104000029004e"},
		{envelope{From: 3, Kind: "app", Payload: "text", Seq: 1}, "45000600010003617070530474657874"},
		{envelope{From: 3, Kind: "app", Payload: nil, Seq: 2}, "450006000200036170704e"},
		{msg, "421f0101d8040202d8040d156c6566745f656e67696e655f657863657074696f6e"},
		{"bare", "530462617265"},
		{nil, "4e"},
	}
	inPlace := newTCPCodec(wire.Codec{})
	generic := newTCPCodec(struct{ transport.Codec }{wire.Codec{}})
	if inPlace.place == nil || generic.place != nil {
		t.Fatal("the two codecs under test do not take the two paths")
	}
	for i, tc := range cases {
		for name, c := range map[string]tcpCodec{"in-place": inPlace, "generic": generic} {
			enc, err := c.Encode(tc.give)
			if err != nil {
				t.Fatalf("case %d %s: Encode: %v", i, name, err)
			}
			if got := hex.EncodeToString(enc.([]byte)); got != tc.hex {
				t.Errorf("case %d %s: encoded\n %s\nwant\n %s", i, name, got, tc.hex)
			}
			got, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("case %d %s: Decode: %v", i, name, err)
			}
			if !reflect.DeepEqual(got, tc.give) {
				t.Errorf("case %d %s: decoded %+v, want %+v", i, name, got, tc.give)
			}
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
