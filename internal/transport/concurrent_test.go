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
// and core's dispatcher are built on. The handler runs on the delivering
// goroutine, so calls for different senders may overlap, but each sender's
// messages arrive in its send order. stopped runs exactly once, whether the
// port was closed or the network shut down under it, and no handler call
// starts once it has begun or once Close has returned. Bind is the same thing
// with a channel behind it, which closes either way.
func TestConcurrentPortLifecycle(t *testing.T) {
	for _, how := range []string{"close", "network shutdown"} {
		t.Run(how, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			c := NewConcurrent(net, ConcurrentOptions{})
			defer c.Close()

			var stoppedCalls atomic.Int32
			var shut, late atomic.Bool
			disorder := make(chan string, 1)
			inOrder := func(next map[ident.ObjectID]int, m Message) {
				if want := next[m.From]; m.Payload != want {
					select {
					case disorder <- fmt.Sprintf("%s->%s: %v arrived, want %d", m.From, m.To, m.Payload, want):
					default:
					}
				}
				next[m.From] = m.Payload.(int) + 1
			}
			var mu sync.Mutex // the handler's calls overlap: it guards next
			next := make(map[ident.ObjectID]int)
			stopped := make(chan struct{})
			handled := make(chan struct{}, 1)
			pf, err := c.BindFunc(1, 101, func(m Message) {
				if stoppedCalls.Load() != 0 || shut.Load() {
					late.Store(true)
				}
				mu.Lock()
				inOrder(next, m)
				mu.Unlock()
				select {
				case handled <- struct{}{}:
				default:
				}
				runtime.Gosched()
			}, func() {
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
			// the shutdown comes; nobody reads pc until then, so its Recv
			// adapter sits offering the first message.
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
			shut.Store(true)
			select {
			case <-stopped:
			default:
				t.Fatalf("stopped hook had not run when %s returned", how)
			}
			drained := make(map[ident.ObjectID]int)
			deadline := time.After(5 * time.Second)
			for open := true; open; {
				select {
				case m, ok := <-pc.Recv():
					if open = ok; ok {
						inOrder(drained, m)
					}
				case <-deadline:
					t.Fatalf("Recv still open after %s", how)
				}
			}
			time.Sleep(2 * time.Millisecond) // senders are still going
			close(stop)
			wg.Wait()
			pf.Close() // a second Close, also after a network shutdown, is harmless
			if n := stoppedCalls.Load(); n != 1 {
				t.Errorf("stopped hook ran %d times, want once", n)
			}
			if late.Load() {
				t.Error("handler called after the stopped hook began or Close returned")
			}
			select {
			case msg := <-disorder:
				t.Error(msg)
			default:
			}
		})
	}
}
