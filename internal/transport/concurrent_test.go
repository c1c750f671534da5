package transport

import (
	"errors"
	"fmt"
	"sync"
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
	})
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

func TestConcurrentIsolateHeal(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	census := NewCensus()
	c := NewConcurrent(net, ConcurrentOptions{Sink: census})
	defer c.Close()

	pa, err := c.Bind(1, 101)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Bind(2, 102)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Isolate(2); err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(2, "k", "lost"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-pb.Recv():
		t.Fatalf("isolated node received %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c.Heal(2); err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(2, "k", "ok"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-pb.Recv():
		if m.Payload != "ok" {
			t.Errorf("after heal got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery after heal timed out")
	}
	if err := c.Isolate(42); !errors.Is(err, ErrUnknownDestination) {
		t.Errorf("Isolate(unbound) = %v, want ErrUnknownDestination", err)
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
	if err := pa.Send(2, "k", "payload"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-pb.Recv():
		if m.Payload != "payload" {
			t.Errorf("payload through codec = %v", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timed out")
	}
}

func TestConcurrentNamedPartition(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	c := NewConcurrent(net, ConcurrentOptions{})
	defer c.Close()

	ports := make(map[ident.ObjectID]*Port, 4)
	for i := ident.ObjectID(1); i <= 4; i++ {
		p, err := c.Bind(i, ident.NodeID(100+i))
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
	}

	if err := c.Partition("split", 3, 4); err != nil {
		t.Fatal(err)
	}

	// Within each island traffic flows; across the split it is dropped.
	if err := ports[1].Send(2, "k", "in"); err != nil {
		t.Fatal(err)
	}
	if err := ports[3].Send(4, "k", "in"); err != nil {
		t.Fatal(err)
	}
	for _, to := range []ident.ObjectID{2, 4} {
		select {
		case m := <-ports[to].Recv():
			if m.Payload != "in" {
				t.Fatalf("island delivery = %+v", m)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("island delivery to %s timed out", to)
		}
	}
	if err := ports[1].Send(3, "k", "cross"); err != nil {
		t.Fatal(err)
	}
	if err := ports[4].Send(2, "k", "cross"); err != nil {
		t.Fatal(err)
	}
	for _, to := range []ident.ObjectID{3, 2} {
		select {
		case m := <-ports[to].Recv():
			t.Fatalf("cross-partition delivery %+v", m)
		case <-time.After(30 * time.Millisecond):
		}
	}

	c.HealPartition("split")
	if err := ports[1].Send(3, "k", "healed"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ports[3].Recv():
		if m.Payload != "healed" {
			t.Errorf("after heal got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery after heal timed out")
	}

	if err := c.Partition("bad", 42); !errors.Is(err, ErrUnknownDestination) {
		t.Errorf("Partition(unbound) = %v, want ErrUnknownDestination", err)
	}
}
