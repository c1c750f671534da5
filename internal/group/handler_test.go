package group

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
)

// handlerBackends are the two fabrics the handler path runs over: the netsim
// directory, here with loss and duplication so R3 has work to do, and
// loopback sockets.
func handlerBackends(t *testing.T) map[string]func() (Binder, func()) {
	t.Helper()
	return map[string]func() (Binder, func()){
		"netsim": func() (Binder, func()) {
			net := netsim.New(netsim.Config{DropRate: 0.05, DupRate: 0.05, Seed: 7})
			return NewDirectory(net), net.Close
		},
		"tcp": func() (Binder, func()) {
			dir := NewTCPDirectory()
			return dir, dir.Close
		},
	}
}

// TestHandlerFIFOExactlyOnce drives the path core uses: four R3 transports
// send concurrently into a fifth bound with a deliver function. Every message
// arrives exactly once, in its sender's order, and deliver calls never
// overlap: the port's handler calls do, one per delivering goroutine, and
// R3's lock serialises what they deliver.
func TestHandlerFIFOExactlyOnce(t *testing.T) {
	const senders, per = 4, 300
	for name, open := range handlerBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer conformancetest.LeakCheck(t)()
			dir, closeDir := open()
			defer closeDir()

			var inDeliver atomic.Int32
			next := make(map[ident.ObjectID]int) // deliver calls only, read after done
			violations := make(chan string, 1)
			done := make(chan struct{})
			total := 0
			report := func(msg string) {
				select {
				case violations <- msg:
				default:
				}
			}
			sinkTr, err := BindR3(dir, 9, time.Millisecond, nil, func(d Delivery) {
				if inDeliver.Add(1) != 1 {
					report("two deliver calls overlap")
				}
				defer inDeliver.Add(-1)
				if got := d.Payload.(string); got != fmt.Sprintf("%d#%d", d.From, next[d.From]) {
					report(fmt.Sprintf("from %s got %q, want #%d", d.From, got, next[d.From]))
				}
				next[d.From]++
				if total++; total == senders*per {
					close(done)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sinkTr.Close()
			if sinkTr.Recv() != nil {
				t.Error("a transport bound with a deliver function has a Recv channel")
			}

			var wg sync.WaitGroup
			for s := 1; s <= senders; s++ {
				tr, err := BindR3(dir, ident.ObjectID(s), time.Millisecond, nil, func(Delivery) {})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := tr.SendTagged(9, "m", 1, fmt.Sprintf("%d#%d", tr.Self(), i)); err != nil {
							t.Errorf("send %d from %s: %v", i, tr.Self(), err)
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case <-done:
			case msg := <-violations:
				t.Fatal(msg)
			case <-time.After(30 * time.Second):
				t.Fatal("not every message was delivered")
			}
			// Retransmissions and duplicates keep arriving for a while; none
			// of them may be delivered a second time.
			time.Sleep(20 * time.Millisecond)
			sinkTr.Close()
			select {
			case msg := <-violations:
				t.Fatal(msg)
			default:
			}
			if total != senders*per {
				t.Fatalf("delivered %d messages, want exactly %d", total, senders*per)
			}
		})
	}
}

// TestCloseStopsDeliver: once Close has returned, deliver is not running and
// is never called again, however much traffic is still on its way.
func TestCloseStopsDeliver(t *testing.T) {
	for name, bind := range map[string]func(Binder, ident.ObjectID, func(Delivery)) (Transport, error){
		"raw": func(dir Binder, obj ident.ObjectID, deliver func(Delivery)) (Transport, error) {
			return BindRaw(dir, obj, deliver)
		},
		"r3": func(dir Binder, obj ident.ObjectID, deliver func(Delivery)) (Transport, error) {
			return BindR3(dir, obj, time.Millisecond, nil, deliver)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer conformancetest.LeakCheck(t)()
			net := netsim.New(netsim.Config{})
			defer net.Close()
			dir := NewDirectory(net)

			var closed, late atomic.Bool
			var delivered atomic.Int64
			dst, err := bind(dir, 2, func(Delivery) {
				if closed.Load() {
					late.Store(true)
				}
				delivered.Add(1)
				runtime.Gosched() // widen the window Close has to wait out
			})
			if err != nil {
				t.Fatal(err)
			}
			src, err := bind(dir, 1, func(Delivery) {})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						_ = src.Send(2, "m", i)
					}
				}
			}()
			for delivered.Load() < 100 {
				runtime.Gosched()
			}
			dst.Close()
			closed.Store(true)
			time.Sleep(5 * time.Millisecond) // the sender is still going
			close(stop)
			wg.Wait()
			if late.Load() {
				t.Fatal("deliver was called after Close returned")
			}
		})
	}
}

// TestRecvClosesOnCloseAndNetworkShutdown: the channel constructors are
// adapters on the handler path and keep the channel's contract. It closes
// when the transport is closed, also with a delivery nobody is reading, and
// when the network goes away under the transport.
func TestRecvClosesOnCloseAndNetworkShutdown(t *testing.T) {
	for name, open := range map[string]func(Binder, ident.ObjectID) (Transport, error){
		"raw": func(dir Binder, obj ident.ObjectID) (Transport, error) { return NewRawTransport(dir, obj) },
		"r3": func(dir Binder, obj ident.ObjectID) (Transport, error) {
			return NewR3Transport(dir, obj, time.Millisecond)
		},
	} {
		for _, how := range []string{"close", "network shutdown"} {
			t.Run(name+"/"+how, func(t *testing.T) {
				defer conformancetest.LeakCheck(t)()
				net := netsim.New(netsim.Config{})
				dir := NewDirectory(net)
				a, err := open(dir, 1)
				if err != nil {
					t.Fatal(err)
				}
				b, err := open(dir, 2)
				if err != nil {
					t.Fatal(err)
				}
				// Two unread messages: b's Recv adapter sits offering
				// the first when the shutdown comes.
				for i := 0; i < 2; i++ {
					if err := a.Send(2, "m", i); err != nil {
						t.Fatal(err)
					}
				}
				if how == "close" {
					b.Close()
				} else {
					net.Close()
				}
				deadline := time.After(5 * time.Second)
				for open := true; open; {
					select {
					case _, open = <-b.Recv():
					case <-deadline:
						t.Fatalf("Recv still open after %s", how)
					}
				}
				a.Close()
				b.Close()
				net.Close()
			})
		}
	}
}

// earlyBinder is a Binder whose port delivers before Bind has returned, as a
// real port may: the node is reachable from the moment it exists, and the
// delivering goroutine does not wait for whoever called Bind.
type earlyBinder struct {
	port    *recordingPort
	first   transport.Message
	handled chan struct{}
}

func (b *earlyBinder) Bind(_ ident.ObjectID, fn transport.Handler, _ func()) (Port, error) {
	go func() {
		fn(b.first)
		close(b.handled)
	}()
	// Give the handler every chance to run ahead of the constructor.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	time.Sleep(time.Millisecond)
	return b.port, nil
}

// TestDeliveryDuringConstruction: the first arrival is out of order, so R3
// must answer it at once, through the port, from the handler. The handler
// runs while BindR3 is still inside Bind and must find the port, not nil.
func TestDeliveryDuringConstruction(t *testing.T) {
	b := &earlyBinder{
		port:    &recordingPort{self: 1},
		first:   transport.Message{From: 2, To: 1, Kind: wireKind, Payload: data(2, 0)},
		handled: make(chan struct{}),
	}
	tr, err := BindR3(b, 1, testRetransmit, nil, func(Delivery) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	select {
	case <-b.handled:
	case <-time.After(5 * time.Second):
		t.Fatal("the early delivery was never handled")
	}
	wantSent(t, b.port.take(), envelope{IsAck: true, Ack: 0})
}
