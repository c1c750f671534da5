package group

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
)

func newRawPair(t *testing.T) (*netsim.Network, *RawTransport, *RawTransport) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	dir := NewDirectory(net)
	a, err := NewRawTransport(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRawTransport(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
		net.Close()
	})
	return net, a, b
}

func TestDirectory(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	dir := NewDirectory(net)
	if _, err := dir.Bind(1, func(transport.Message) {}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Bind(1, func(transport.Message) {}, nil); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate register: %v", err)
	}
	if err := dir.Partition("cut", 9); !errors.Is(err, transport.ErrUnknownDestination) {
		t.Errorf("partition of an unbound object: %v", err)
	}
	if _, err := dir.Bind(3, func(transport.Message) {}, nil); err != nil {
		t.Fatal(err)
	}
	members := dir.Members()
	if len(members) != 2 || members[0] != 1 || members[1] != 3 {
		t.Errorf("members = %v", members)
	}
}

func TestRawSendRecv(t *testing.T) {
	_, a, b := newRawPair(t)
	if a.Self() != 1 || b.Self() != 2 {
		t.Fatal("Self wrong")
	}
	if err := a.Send(2, "hello", 5); err != nil {
		t.Fatal(err)
	}
	d := <-b.Recv()
	if d.From != 1 || d.Kind != "hello" || d.Payload.(int) != 5 {
		t.Errorf("delivery = %+v", d)
	}
}

func TestRawSendUnknownPeer(t *testing.T) {
	_, a, _ := newRawPair(t)
	if err := a.Send(42, "x", nil); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("want ErrUnknownMember, got %v", err)
	}
}

func TestRawFIFO(t *testing.T) {
	_, a, b := newRawPair(t)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(2, "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		d := <-b.Recv()
		if d.Payload.(int) != i {
			t.Fatalf("out of order at %d: got %d", i, d.Payload)
		}
	}
}

func TestRawCloseIdempotent(t *testing.T) {
	_, a, _ := newRawPair(t)
	a.Close()
	a.Close()
	if _, ok := <-a.Recv(); ok {
		t.Error("recv should be closed")
	}
}

// newLossyGroup builds n R3 transports over a dropping+duplicating network.
func newLossyGroup(t *testing.T, n int, drop, dup float64, seed int64) (*netsim.Network, []*R3Transport) {
	t.Helper()
	net := netsim.New(netsim.Config{DropRate: drop, DupRate: dup, Seed: seed})
	dir := NewDirectory(net)
	ts := make([]*R3Transport, n)
	for i := 0; i < n; i++ {
		tr, err := NewR3Transport(dir, ident.ObjectID(i+1), time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = tr
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
		net.Close()
	})
	return net, ts
}

func TestR3DeliversOverLossyNetwork(t *testing.T) {
	_, ts := newLossyGroup(t, 2, 0.3, 0.1, 7)
	a, b := ts[0], ts[1]
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			_ = a.Send(2, "seq", i)
		}
	}()
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case d := <-b.Recv():
			if d.Payload.(int) != i {
				t.Fatalf("out of order at %d: got %d", i, d.Payload)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

func TestR3NoDuplicatesNoGaps(t *testing.T) {
	f := func(seed int64) bool {
		net := netsim.New(netsim.Config{DropRate: 0.25, DupRate: 0.25, Seed: seed})
		defer net.Close()
		dir := NewDirectory(net)
		a, err := NewR3Transport(dir, 1, time.Millisecond)
		if err != nil {
			return false
		}
		b, err := NewR3Transport(dir, 2, time.Millisecond)
		if err != nil {
			return false
		}
		defer a.Close()
		defer b.Close()
		const n = 30
		for i := 0; i < n; i++ {
			if err := a.Send(2, "seq", i); err != nil {
				return false
			}
		}
		deadline := time.After(5 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case d := <-b.Recv():
				if d.Payload.(int) != i {
					return false
				}
			case <-deadline:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestR3Bidirectional(t *testing.T) {
	_, ts := newLossyGroup(t, 2, 0.2, 0, 3)
	a, b := ts[0], ts[1]
	go func() { _ = a.Send(2, "ping", 1) }()
	go func() { _ = b.Send(1, "pong", 2) }()
	da := <-b.Recv()
	db := <-a.Recv()
	if da.Kind != "ping" || db.Kind != "pong" {
		t.Errorf("got %v %v", da, db)
	}
}
