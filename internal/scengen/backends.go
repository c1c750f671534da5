package scengen

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
	"repro/internal/wire"
)

// This file adapts the four transport backends to conformancetest.Fabric
// without *testing.T, mirroring the adapters of the transport conformance
// suite so the oracle can run from fuzz workers, cmd/scenfuzz and CI drivers
// alike. The settle deadline is a parameter: the shrinker runs known-failing
// programs over and over and must not pay a 10-second timeout per probe.

// protoBackend names one protocol-tier subject fabric.
type protoBackend struct {
	name string
	make func(settle time.Duration) conformancetest.Fabric
}

// protoBackends lists the subjects the protocol tier diffs against the
// protocol.Sim reference: the deterministic fabric (scheduling sanity), the
// goroutine-per-endpoint fabric, and real loopback sockets.
func protoBackends() []protoBackend {
	return []protoBackend{
		{name: "proto/deterministic", make: func(time.Duration) conformancetest.Fabric {
			return &stepFabric{f: transport.NewDeterministic(transport.Options{})}
		}},
		{name: "proto/concurrent", make: newConcurrentFabric},
		{name: "proto/tcp", make: newTCPFabric},
	}
}

// stepFabric adapts the single-goroutine deterministic backend: Settle is an
// explicit drain.
type stepFabric struct {
	f *transport.Deterministic
}

func (s *stepFabric) Register(obj ident.ObjectID, h transport.Handler) { s.f.Register(obj, h) }
func (s *stepFabric) Send(m transport.Message) error                   { return s.f.Send(m) }
func (s *stepFabric) Settle(func() int, int) error                     { return s.f.Drain(1 << 20) }
func (s *stepFabric) Close()                                           { _ = s.f.Close() }

// awaitCount waits for the asynchronous backends' committed count to reach
// want within the deadline, then grants a short grace period so late extras
// are still observed by the caller's diff.
func awaitCount(count func() int, want int, deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for count() < want {
		if time.Now().After(limit) {
			return fmt.Errorf("committed %d of %d before timeout", count(), want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	return nil
}

// concurrentFabric adapts the goroutine-per-endpoint backend, owning the
// netsim network under it.
type concurrentFabric struct {
	net    *netsim.Network
	c      *transport.Concurrent
	next   ident.NodeID
	settle time.Duration
}

func newConcurrentFabric(settle time.Duration) conformancetest.Fabric {
	net := netsim.New(netsim.Config{})
	c := transport.NewConcurrent(net, transport.ConcurrentOptions{})
	return &concurrentFabric{net: net, c: c, next: 1000, settle: settle}
}

func (f *concurrentFabric) Register(obj ident.ObjectID, h transport.Handler) {
	f.next++
	if _, err := f.c.BindFunc(obj, f.next, h, nil); err != nil {
		panic(err)
	}
}

func (f *concurrentFabric) Send(m transport.Message) error { return f.c.Send(m) }
func (f *concurrentFabric) Settle(count func() int, want int) error {
	return awaitCount(count, want, f.settle)
}
func (f *concurrentFabric) Close() {
	_ = f.c.Close()
	f.net.Close()
}

// tcpFabric adapts the socket backend: one TCP fabric (listener, address
// space) per object, routed through a shared address book via the Resolve
// hook, with the wire codec on every frame — sockets carry bytes.
type tcpFabric struct {
	settle time.Duration

	mu      sync.Mutex
	fabrics map[ident.ObjectID]*transport.TCP
	book    map[ident.ObjectID]string
}

func newTCPFabric(settle time.Duration) conformancetest.Fabric {
	return &tcpFabric{
		settle:  settle,
		fabrics: make(map[ident.ObjectID]*transport.TCP),
		book:    make(map[ident.ObjectID]string),
	}
}

func (f *tcpFabric) addrOf(obj ident.ObjectID) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	addr, ok := f.book[obj]
	if !ok {
		return "", fmt.Errorf("no fabric hosts %v", obj)
	}
	return addr, nil
}

func (f *tcpFabric) Register(obj ident.ObjectID, h transport.Handler) {
	fab, err := transport.NewTCP(transport.TCPOptions{
		Codec:   wire.Codec{},
		Resolve: f.addrOf,
	})
	if err != nil {
		panic(err)
	}
	if _, err := fab.BindFunc(obj, h, nil); err != nil {
		panic(err)
	}
	f.mu.Lock()
	f.fabrics[obj] = fab
	f.book[obj] = fab.Addr()
	f.mu.Unlock()
}

func (f *tcpFabric) Send(m transport.Message) error {
	f.mu.Lock()
	fab, ok := f.fabrics[m.From]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("sender %v not registered", m.From)
	}
	return fab.Send(m)
}

func (f *tcpFabric) Settle(count func() int, want int) error {
	return awaitCount(count, want, f.settle)
}

func (f *tcpFabric) Close() {
	f.mu.Lock()
	fabrics := make([]*transport.TCP, 0, len(f.fabrics))
	for _, fab := range f.fabrics {
		fabrics = append(fabrics, fab)
	}
	f.mu.Unlock()
	for _, fab := range fabrics {
		_ = fab.Close()
	}
}
