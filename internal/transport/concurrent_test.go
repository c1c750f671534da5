package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
)

func TestConcurrentRoundtrip(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	c := NewConcurrent(net, ConcurrentOptions{})
	defer c.Close()

	pa, err := c.Bind(1, 101)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Bind(2, 102)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(2, "ping", "hello"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-pb.Recv():
		if m.From != 1 || m.Kind != "ping" || m.Payload != "hello" {
			t.Errorf("delivery = %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timed out")
	}
}

func TestConcurrentErrors(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	c := NewConcurrent(net, ConcurrentOptions{})
	defer c.Close()

	p, err := c.Bind(1, 101)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send(42, "k", nil); !errors.Is(err, ErrUnknownDestination) {
		t.Errorf("send to unbound = %v, want ErrUnknownDestination", err)
	}
	if _, err := c.Bind(1, 103); !errors.Is(err, ErrDuplicateBind) {
		t.Errorf("double bind = %v, want ErrDuplicateBind", err)
	}
}

func TestConcurrentPerSenderFIFO(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	c := NewConcurrent(net, ConcurrentOptions{})
	defer c.Close()

	const senders = 4
	const per = 50
	var mu sync.Mutex
	next := make(map[ident.ObjectID]int)
	done := make(chan struct{})
	fifoErr := make(chan string, 1)
	total := 0
	_, err := c.BindFunc(9, 109, func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		if m.Payload.(int) != next[m.From] {
			select {
			case fifoErr <- fmt.Sprintf("%s delivered %v, want %d",
				m.From, m.Payload, next[m.From]):
			default:
			}
		}
		next[m.From]++
		total++
		if total == senders*per {
			close(done)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		port, err := c.Bind(ident.ObjectID(s), ident.NodeID(100+s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p *Port) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := p.Send(9, "k", i); err != nil {
					t.Error(err)
					return
				}
			}
		}(port)
	}
	wg.Wait()
	select {
	case <-done:
	case msg := <-fifoErr:
		t.Fatal(msg)
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timed out after %d/%d deliveries", total, senders*per)
	}
}

func TestConcurrentCodecBoundary(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	c := NewConcurrent(net, ConcurrentOptions{Codec: doubler{}})
	defer c.Close()

	pa, err := c.Bind(1, 101)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Bind(2, 102)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.SendMessage(Message{To: 2, Kind: "k", Body: Body{Exc: "body"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-pb.Recv():
		if m.Body.Exc != "body" {
			t.Errorf("body through codec = %q", m.Body.Exc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timed out")
	}
}

// TestConcurrentPortLifecycle pins the BindFunc contract the group transports
// and core's dispatcher are built on: handlers run one at a time, stopped is
// the port goroutine's last act whether the port was closed or the network
// shut down under it, the handler is never called afterwards, and Bind is the
// same thing with a channel behind it.
func TestConcurrentPortLifecycle(t *testing.T) {
	for _, how := range []string{"close", "network shutdown"} {
		t.Run(how, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			c := NewConcurrent(net, ConcurrentOptions{})
			defer c.Close()

			var running, stoppedCalls atomic.Int32
			var overlap, late atomic.Bool
			stopped := make(chan struct{})
			handled := make(chan struct{}, 1)
			pf, err := c.BindFunc(1, 101, func(Message) {
				if running.Add(1) != 1 {
					overlap.Store(true)
				}
				if stoppedCalls.Load() != 0 {
					late.Store(true)
				}
				select {
				case handled <- struct{}{}:
				default:
				}
				runtime.Gosched()
				running.Add(-1)
			}, func() {
				if running.Load() != 0 {
					overlap.Store(true)
				}
				if stoppedCalls.Add(1) == 1 {
					close(stopped)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if pf.Recv() != nil {
				t.Error("a BindFunc port has a Recv channel")
			}
			pc, err := c.Bind(2, 102)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Bind(3, 102); !errors.Is(err, netsim.ErrNodeTaken) {
				t.Errorf("second bind on one node: %v, want ErrNodeTaken", err)
			}

			// Traffic into both ports from two senders, still flowing when
			// the shutdown comes; nobody reads pc, so its goroutine sits in
			// the channel send.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for _, from := range []*Port{pf, pc} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							_ = from.Send(1, "m", i)
							_ = from.Send(2, "m", i)
						}
					}
				}()
			}
			<-handled
			if how == "close" {
				pf.Close()
				pc.Close()
			} else {
				net.Close()
			}
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatalf("stopped hook not called after %s", how)
			}
			deadline := time.After(5 * time.Second)
			for open := true; open; {
				select {
				case _, open = <-pc.Recv():
				case <-deadline:
					t.Fatalf("Recv still open after %s", how)
				}
			}
			time.Sleep(2 * time.Millisecond) // senders are still going
			close(stop)
			wg.Wait()
			pf.Close() // waits for the goroutine, also after a network shutdown
			if n := stoppedCalls.Load(); n != 1 {
				t.Errorf("stopped hook ran %d times, want once", n)
			}
			if overlap.Load() {
				t.Error("two handler calls, or a handler call and the stopped hook, overlapped")
			}
			if late.Load() {
				t.Error("handler called after the stopped hook")
			}
		})
	}
}
