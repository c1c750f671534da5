package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/wire/frame"
)

// tcpPair builds two wired-up fabrics, one hosting each of the given
// objects, and registers cleanup.
func tcpPair(t *testing.T, optsA, optsB TCPOptions, a, b ident.ObjectID) (*TCP, *TCP) {
	t.Helper()
	fa, err := NewTCP(optsA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fa.Close() })
	fb, err := NewTCP(optsB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	fa.SetPeer(b, fb.Addr())
	fb.SetPeer(a, fa.Addr())
	return fa, fb
}

// collect drains n messages from a port with a deadline.
func drainPort(t *testing.T, port *TCPPort, n int, within time.Duration) []Message {
	t.Helper()
	var got []Message
	deadline := time.After(within)
	for len(got) < n {
		select {
		case m, ok := <-port.Recv():
			if !ok {
				t.Fatalf("port closed after %d/%d messages", len(got), n)
			}
			got = append(got, m)
		case <-deadline:
			t.Fatalf("timed out after %d/%d messages", len(got), n)
		}
	}
	return got
}

func TestTCPBasicDelivery(t *testing.T) {
	fa, fb := tcpPair(t, TCPOptions{}, TCPOptions{}, 1, 2)
	pa, err := fa.Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := fb.Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(2, "ping", []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	got := drainPort(t, pb, 1, 5*time.Second)[0]
	if got.From != 1 || got.To != 2 || got.Kind != "ping" || string(got.Payload.([]byte)) != "over the wire" {
		t.Fatalf("delivered %+v", got)
	}
	// Reply crosses the reverse direction on a separate connection.
	if err := pb.Send(1, "pong", "as a string"); err != nil {
		t.Fatal(err)
	}
	back := drainPort(t, pa, 1, 5*time.Second)[0]
	if s, ok := back.Payload.(string); !ok || s != "as a string" {
		t.Fatalf("string payload did not survive the frame: %T %v", back.Payload, back.Payload)
	}
}

func TestTCPLocalFastPath(t *testing.T) {
	f, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p1, err := f.Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	_ = p1
	if err := f.Send(Message{From: 1, To: 2, Kind: "loop", Payload: []byte("local")}); err != nil {
		t.Fatal(err)
	}
	got := drainPort(t, p2, 1, 5*time.Second)[0]
	if string(got.Payload.([]byte)) != "local" {
		t.Fatalf("local delivery mangled payload: %+v", got)
	}
}

func TestTCPFIFOPerPair(t *testing.T) {
	const n = 200
	fa, fb := tcpPair(t, TCPOptions{}, TCPOptions{}, 1, 2)
	pa, err := fa.Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := fb.Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pa.Send(2, "seq", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	got := drainPort(t, pb, n, 10*time.Second)
	for i, m := range got {
		if m.Payload.(string) != fmt.Sprintf("%d", i) {
			t.Fatalf("position %d: got %q (FIFO violated)", i, m.Payload)
		}
	}
}

func TestTCPConcurrentSendersFIFOPerPair(t *testing.T) {
	const (
		senders   = 4
		perSender = 100
	)
	receiver, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	var mu sync.Mutex
	lastSeen := make(map[ident.ObjectID]int)
	violation := ""
	count := 0
	doneCh := make(chan struct{})
	_, err = receiver.BindFunc(99, func(m Message) {
		var from, i int
		fmt.Sscanf(m.Payload.(string), "%d#%d", &from, &i)
		mu.Lock()
		if last, ok := lastSeen[m.From]; ok && i != last+1 && violation == "" {
			violation = fmt.Sprintf("from %v: got #%d after #%d", m.From, i, last)
		}
		lastSeen[m.From] = i
		if count++; count == senders*perSender {
			close(doneCh)
		}
		mu.Unlock()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var fabrics []*TCP
	for s := 1; s <= senders; s++ {
		f, err := NewTCP(TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.SetPeer(99, receiver.Addr())
		fabrics = append(fabrics, f)
	}
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				err := fabrics[s-1].Send(Message{
					From: ident.ObjectID(s), To: 99, Kind: "k",
					Payload: fmt.Sprintf("%d#%d", s, i),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timed out: %d/%d delivered", count, senders*perSender)
	}
	mu.Lock()
	defer mu.Unlock()
	if violation != "" {
		t.Fatal(violation)
	}
}

// dropSink forwards every drop it is shown; the other events are ignored.
type dropSink chan Message

func (dropSink) Sent(Message)        {}
func (dropSink) Delivered(Message)   {}
func (s dropSink) Dropped(m Message) { s <- m }
func (dropSink) Duplicated(Message)  {}

// TestTCPUnboundDropCarriesAction: a frame that arrives for an object the
// receiving fabric does not host is reported to the sink with the sender's
// action tag, like every other drop site, so a sink keyed on the action can
// attribute it.
func TestTCPUnboundDropCarriesAction(t *testing.T) {
	drops := make(dropSink, 1)
	sender, _ := tcpPair(t, TCPOptions{}, TCPOptions{Sink: drops}, 1, 2)
	if err := sender.Send(Message{From: 1, To: 2, Action: 7, Kind: "k", Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-drops:
		if m.Action != 7 {
			t.Fatalf("drop recorded as %+v, want action 7", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no drop recorded for a frame addressed to an unbound object")
	}
}

func TestTCPSinkAccounting(t *testing.T) {
	census := NewCensus()
	fa, fb := tcpPair(t, TCPOptions{Sink: census}, TCPOptions{}, 1, 2)
	if _, err := fa.Bind(1); err != nil {
		t.Fatal(err)
	}
	pb, err := fb.Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := fa.Send(Message{From: 1, To: 2, Kind: "count", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	drainPort(t, pb, n, 5*time.Second)
	if got := census.SentByKind()["count"]; got != n {
		t.Errorf("sender census: sent[count] = %d, want %d", got, n)
	}
}

func TestTCPErrors(t *testing.T) {
	f, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Bind(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Bind(1); !errors.Is(err, ErrDuplicateBind) {
		t.Errorf("double bind: %v, want ErrDuplicateBind", err)
	}
	if err := f.Send(Message{From: 1, To: 42, Kind: "k"}); !errors.Is(err, ErrUnknownDestination) {
		t.Errorf("unrouted destination: %v, want ErrUnknownDestination", err)
	}
	if err := f.Send(Message{From: 1, To: 1, Kind: "k", Payload: struct{ X int }{1}}); err == nil {
		t.Error("non-serialisable payload accepted without a codec")
	}
	if err := f.Reachable(1); err != nil {
		t.Errorf("Reachable(local) = %v", err)
	}
	if err := f.Reachable(42); !errors.Is(err, ErrUnknownDestination) {
		t.Errorf("Reachable(unknown) = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(Message{From: 1, To: 1, Kind: "k"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
	if _, err := f.Bind(2); !errors.Is(err, ErrClosed) {
		t.Errorf("bind after close: %v, want ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestTCPResolver(t *testing.T) {
	receiver, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	port, err := receiver.Bind(7)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewTCP(TCPOptions{
		Resolve: func(obj ident.ObjectID) (string, error) {
			if obj == 7 {
				return receiver.Addr(), nil
			}
			return "", fmt.Errorf("no route")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	if err := sender.Send(Message{From: 1, To: 7, Kind: "k", Payload: []byte("via resolver")}); err != nil {
		t.Fatal(err)
	}
	got := drainPort(t, port, 1, 5*time.Second)[0]
	if string(got.Payload.([]byte)) != "via resolver" {
		t.Fatalf("resolver delivery: %+v", got)
	}
	if err := sender.Reachable(7); err != nil {
		t.Errorf("Reachable via resolver = %v", err)
	}
}

// gatedConn stands in for a peer's socket: every Write reports that it has
// begun and then waits for the test's verdict, so the test decides what is
// framed "while the previous write was in the kernel".
type gatedConn struct {
	net.Conn // nil: the writer only ever calls Write and Close
	entered  chan []byte
	verdict  chan error
	closed   chan struct{}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.entered <- append([]byte(nil), b...)
	if err := <-c.verdict; err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *gatedConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

// TestTCPWriteCoalescing pins the writer's batching contract: frames sent
// while a Write is outstanding leave together in the next Write, in send
// order, and a Write that fails loses exactly its own batch — the writer
// redials and carries on with what was framed after it.
func TestTCPWriteCoalescing(t *testing.T) {
	receiver, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	port, err := receiver.Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.SetPeer(2, receiver.Addr())

	peer, err := sender.peerFor(receiver.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := &gatedConn{entered: make(chan []byte), verdict: make(chan error), closed: make(chan struct{})}
	peer.mu.Lock()
	peer.conn = conn
	peer.mu.Unlock()

	send := func(i int) {
		t.Helper()
		if err := sender.Send(Message{From: 1, To: 2, Kind: "k", Payload: fmt.Sprintf("%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	payloads := func(batch []byte) (got []string) {
		t.Helper()
		r := bytes.NewReader(batch)
		for r.Len() > 0 {
			f, err := frame.Read(r)
			if err != nil {
				t.Fatalf("batch does not deframe: %v", err)
			}
			got = append(got, string(f.Payload))
		}
		return got
	}

	send(0)
	if got := payloads(<-conn.entered); !reflect.DeepEqual(got, []string{"0"}) {
		t.Fatalf("first write carried %v, want [0]", got)
	}
	for i := 1; i <= 5; i++ {
		send(i) // the first write is still outstanding
	}
	conn.verdict <- nil
	if got := payloads(<-conn.entered); !reflect.DeepEqual(got, []string{"1", "2", "3", "4", "5"}) {
		t.Fatalf("second write carried %v, want the five frames sent during the first", got)
	}
	conn.verdict <- errors.New("broken pipe")
	<-conn.closed

	// The failed batch is gone for good; the next frame goes out over a
	// freshly dialled connection and is the first thing the receiver sees.
	send(6)
	if got := drainPort(t, port, 1, 10*time.Second)[0].Payload; got != "6" {
		t.Fatalf("receiver's first message is %q, want 6 (frames 1-5 were lost with their batch, 0 never left the fake)", got)
	}
}

// TestTCPPortInboxReleasesConsumed checks the other half of the pop: a slot
// that was handed to the consumer no longer pins its payload.
func TestTCPPortInboxReleasesConsumed(t *testing.T) {
	fab, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	port, err := fab.Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		payload := make([]byte, 64)
		runtime.SetFinalizer(&payload[0], func(*byte) { freed.Add(1) })
		if err := fab.Send(Message{From: 1, To: 2, Kind: "k", Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		<-port.Recv()
	}
	// The Recv adapter's pump took the last message out of its queue before
	// it offered it on the channel, so by now every slot has been consumed
	// and the queue (a fifo.Pump over a fifo.Queue, whose own tests pin the
	// slot clearing) is all that could still reach the payloads.
	if queued := port.in.Len(); queued != 0 {
		t.Fatalf("drained Recv queue still holds %d deliveries", queued)
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d consumed payloads are still reachable", n-freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
