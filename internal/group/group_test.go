package group

import (
	"errors"
	"sync"
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

func TestMulticastSkipsSelf(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	dir := NewDirectory(net)
	members := []ident.ObjectID{1, 2, 3}
	var ts []*RawTransport
	for _, m := range members {
		tr, err := NewRawTransport(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ts = append(ts, tr)
	}
	mc := NewMulticaster(ts[0], members)
	sent, err := mc.Multicast("news", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if sent != 2 {
		t.Errorf("sent = %d, want 2", sent)
	}
	for _, tr := range ts[1:] {
		d := <-tr.Recv()
		if d.Kind != "news" || d.From != 1 {
			t.Errorf("delivery = %+v", d)
		}
	}
	got := mc.Members()
	if len(got) != 3 {
		t.Errorf("Members = %v", got)
	}
}

func TestOrderedMulticastTotalOrder(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	dir := NewDirectory(net)
	members := []ident.ObjectID{1, 2, 3, 4}
	var seq sync.Mutex
	trs := make(map[ident.ObjectID]*RawTransport)
	mcs := make(map[ident.ObjectID]*Multicaster)
	for _, m := range members {
		tr, err := NewRawTransport(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[m] = tr
		mcs[m] = NewOrderedMulticaster(tr, members, &seq)
	}

	// Members 1 and 2 multicast concurrently many times; receivers 3 and 4
	// must observe identical total orders.
	const per = 50
	var wg sync.WaitGroup
	for _, sender := range []ident.ObjectID{1, 2} {
		wg.Add(1)
		go func(s ident.ObjectID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := mcs[s].Multicast("m", [2]int{int(s), i}); err != nil {
					t.Errorf("multicast: %v", err)
				}
			}
		}(sender)
	}
	orders := make(map[ident.ObjectID][][2]int)
	for _, receiver := range []ident.ObjectID{3, 4} {
		for i := 0; i < 2*per; i++ {
			d := <-trs[receiver].Recv()
			orders[receiver] = append(orders[receiver], d.Payload.([2]int))
		}
	}
	wg.Wait()
	for i := range orders[3] {
		if orders[3][i] != orders[4][i] {
			t.Fatalf("total order violated at %d: %v vs %v", i, orders[3][i], orders[4][i])
		}
	}
}

// TestMulticastDetailReportsFailures pins the no-silent-drop contract: a
// multicast with unreachable members still attempts every destination, and
// the report names exactly the members that failed — the primitive the
// membership layer's per-send reports are built on.
func TestMulticastDetailReportsFailures(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	dir := NewDirectory(net)
	// Members O4 and O5 are in the group view but never registered: their
	// sends fail at the directory, like members whose node has left.
	members := []ident.ObjectID{1, 2, 3, 4, 5}
	var ts []*RawTransport
	for _, m := range members[:3] {
		tr, err := NewRawTransport(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ts = append(ts, tr)
	}

	mc := NewMulticaster(ts[0], members)
	sent, failed := mc.MulticastDetail("news", "hello")
	if len(sent) != 2 || sent[0] != 2 || sent[1] != 3 {
		t.Errorf("sent = %v, want [2 3]", sent)
	}
	if len(failed) != 2 {
		t.Fatalf("failed = %v, want exactly O4 and O5", failed)
	}
	for _, m := range []ident.ObjectID{4, 5} {
		if err := failed[m]; !errors.Is(err, ErrUnknownMember) {
			t.Errorf("failed[%s] = %v, want ErrUnknownMember", m, err)
		}
	}
	for _, tr := range ts[1:] {
		if d := <-tr.Recv(); d.Kind != "news" {
			t.Errorf("delivery = %+v", d)
		}
	}

	// The classic Multicast surface reports the same thing as a joined error.
	sentN, err := mc.Multicast("news", "again")
	if sentN != 2 {
		t.Errorf("sent = %d, want 2", sentN)
	}
	if !errors.Is(err, ErrUnknownMember) {
		t.Errorf("Multicast error = %v, want ErrUnknownMember in the join", err)
	}
	for _, tr := range ts[1:] {
		<-tr.Recv()
	}

	// With every member reachable, the failure map is nil, not empty.
	mcOK := NewMulticaster(ts[0], members[:3])
	if sent, failed := mcOK.MulticastDetail("ok", nil); failed != nil || len(sent) != 2 {
		t.Errorf("healthy multicast: sent=%v failed=%v", sent, failed)
	}
	for _, tr := range ts[1:] {
		<-tr.Recv()
	}
}
