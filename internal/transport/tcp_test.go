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

// TestTCPReconnect severs the live connection mid-stream through a fault
// proxy: the sender must redial and later messages must still arrive, while
// FIFO order among the survivors is preserved.
func TestTCPReconnect(t *testing.T) {
	const n = 60
	receiver, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	port, err := receiver.Bind(2)
	if err != nil {
		t.Fatal(err)
	}

	proxy, err := NewFaultProxy(receiver.Addr(), FaultProxyOptions{SeverEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sender, err := NewTCP(TCPOptions{RedialMin: time.Millisecond, RedialMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.SetPeer(2, proxy.Addr())

	for i := 0; i < n; i++ {
		if err := sender.Send(Message{From: 1, To: 2, Kind: "k", Payload: fmt.Sprintf("%d", i)}); err != nil {
			t.Fatal(err)
		}
		// Pace the stream so severs land between frames, exercising several
		// reconnect cycles rather than one burst.
		time.Sleep(time.Millisecond)
	}

	// At-most-once across severs: some messages may be lost to broken
	// connections (including the last one), none may be duplicated or
	// reordered. Keep sending sentinels until one survives — per-pair FIFO
	// guarantees every surviving burst message precedes it.
	var got []int
	timeout := time.After(10 * time.Second)
	retry := time.NewTicker(5 * time.Millisecond)
	defer retry.Stop()
	next := n
loop:
	for {
		select {
		case m := <-port.Recv():
			var v int
			fmt.Sscanf(m.Payload.(string), "%d", &v)
			if v >= n {
				break loop // a sentinel made it through
			}
			got = append(got, v)
		case <-retry.C:
			if err := sender.Send(Message{From: 1, To: 2, Kind: "k", Payload: fmt.Sprintf("%d", next)}); err != nil {
				t.Fatal(err)
			}
			next++
		case <-timeout:
			t.Fatalf("no sentinel arrived; got %d messages %v", len(got), got)
		}
	}
	if len(got) < n/2 {
		t.Fatalf("only %d/%d survived — severs should lose at most a frame each", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated or duplicate at %d: %v", i, got)
		}
	}
}

// TestFaultProxyActionPolicy: a port multiplexes many actions, so "lose this
// action's frames only" is the natural targeted fault. The proxy must show
// its policy the frame's action tag, and so drop exactly the frames the
// in-process TCPOptions.Faults hook drops under the same policy.
func TestFaultProxyActionPolicy(t *testing.T) {
	const n = 20
	dropAction7 := func(_, _ ident.ObjectID, _ uint64, m Message) Verdict {
		if m.Action == 7 {
			return Drop
		}
		return Deliver
	}
	// survivors sends n frames from O1 to O2, alternating between actions 7
	// and 8, with the policy either inside the sender or at the wire, and
	// returns the payloads that arrive.
	survivors := func(hook, wire FaultPolicy) []string {
		t.Helper()
		sender, receiver := tcpPair(t, TCPOptions{Faults: hook}, TCPOptions{}, 1, 2)
		port, err := receiver.Bind(2)
		if err != nil {
			t.Fatal(err)
		}
		if wire != nil {
			proxy, err := NewFaultProxy(receiver.Addr(), FaultProxyOptions{Policy: wire})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			sender.SetPeer(2, proxy.Addr())
		}
		for i := 0; i < n; i++ {
			m := Message{From: 1, To: 2, Action: ident.ActionID(7 + i%2), Kind: "k", Payload: fmt.Sprint(i)}
			if err := sender.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		// Per-pair FIFO: when the sentinel arrives, every survivor has.
		if err := sender.Send(Message{From: 1, To: 2, Action: 8, Kind: "k", Payload: "end"}); err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			p := drainPort(t, port, 1, 5*time.Second)[0].Payload.(string)
			if p == "end" {
				return got
			}
			got = append(got, p)
		}
	}
	atHook := survivors(dropAction7, nil)
	if len(atHook) != n/2 {
		t.Fatalf("hook delivered %v, want the %d frames of action 8", atHook, n/2)
	}
	if atWire := survivors(nil, dropAction7); !reflect.DeepEqual(atWire, atHook) {
		t.Fatalf("proxy delivered %v, the hook %v", atWire, atHook)
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

// TestTCPFaultScheduleParity extends the cross-backend parity property to
// the TCP fabric: the same seeded schedule delivers the same multiset as the
// Deterministic backend, even across real sockets.
func TestTCPFaultScheduleParity(t *testing.T) {
	const (
		seed    = 2026
		objects = 3
		perPair = 30
	)
	sends := func(send func(m Message) error) error {
		for i := 0; i < perPair; i++ {
			for from := 1; from <= objects; from++ {
				for to := 1; to <= objects; to++ {
					if from == to {
						continue
					}
					m := Message{From: ident.ObjectID(from), To: ident.ObjectID(to),
						Kind: "k", Payload: fmt.Sprintf("%d->%d#%d", from, to, i)}
					if err := send(m); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	faults := func() FaultPolicy { return SeededFaults(seed, 0.25, 0.15) }

	// Deterministic reference.
	detGot := make(map[string]int)
	det := NewDeterministic(Options{Faults: faults()})
	for o := 1; o <= objects; o++ {
		det.Register(ident.ObjectID(o), func(m Message) { detGot[m.Payload.(string)]++ })
	}
	if err := sends(det.Send); err != nil {
		t.Fatal(err)
	}
	if err := det.Drain(1 << 20); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, c := range detGot {
		delivered += c
	}
	if delivered == 0 || delivered == objects*(objects-1)*perPair {
		t.Fatal("degenerate fault schedule")
	}

	// TCP run: one fabric per object, full peer mesh, same seeded schedule.
	// The fault table is per-fabric, but SeededFaults verdicts depend only on
	// (seed, pair, seq) and each ordered pair's sends all leave one fabric,
	// so the verdicts match the deterministic run exactly.
	var mu sync.Mutex
	tcpGot := make(map[string]int)
	tcpCount := 0
	fabrics := make(map[ident.ObjectID]*TCP)
	for o := 1; o <= objects; o++ {
		f, err := NewTCP(TCPOptions{Faults: faults()})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fabrics[ident.ObjectID(o)] = f
	}
	for o, f := range fabrics {
		obj := o
		_, err := f.BindFunc(obj, func(m Message) {
			mu.Lock()
			tcpGot[string(m.Payload.([]byte))]++
			tcpCount++
			mu.Unlock()
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for peer, pf := range fabrics {
			if peer != obj {
				f.SetPeer(peer, pf.Addr())
			}
		}
	}
	var wg sync.WaitGroup
	for from := 1; from <= objects; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < perPair; i++ {
				for to := 1; to <= objects; to++ {
					if from == to {
						continue
					}
					err := fabrics[ident.ObjectID(from)].Send(Message{
						From: ident.ObjectID(from), To: ident.ObjectID(to),
						Kind: "k", Payload: []byte(fmt.Sprintf("%d->%d#%d", from, to, i)),
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(from)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := tcpCount
		mu.Unlock()
		if n >= delivered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tcp delivered %d, deterministic delivered %d", n, delivered)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if tcpCount != delivered {
		t.Errorf("delivery counts differ: tcp %d, deterministic %d", tcpCount, delivered)
	}
	for k, want := range detGot {
		if got := tcpGot[k]; got != want {
			t.Errorf("message %q: tcp %d, deterministic %d", k, got, want)
		}
	}
	for k := range tcpGot {
		if _, ok := detGot[k]; !ok {
			t.Errorf("message %q delivered on tcp but dropped on deterministic", k)
		}
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
	// The pump took the last message out of the queue before it offered it
	// on the channel, so by now every slot has been consumed and the inbox
	// (a fifo.Pump over a fifo.Queue, whose own tests pin the slot clearing) is all that could
	// still reach the payloads.
	if queued := port.in.Len(); queued != 0 {
		t.Fatalf("drained inbox still holds %d deliveries", queued)
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d consumed payloads are still reachable", n-freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
