package conformancetest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fifo"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// This file adapts the four transport backends to Fabric without *testing.T,
// so the conformance suite, the scenario fuzzer's oracle (fuzz workers,
// cmd/scenfuzz) and CI drivers share one copy. The settle deadline is a
// parameter: the shrinker runs known-failing programs over and over and must
// not pay a ten-second timeout per probe. Register panics where it cannot
// bind: the interface has no error to return and no caller can go on.

// Stepper is the surface of the single-goroutine backend (Deterministic,
// with or without a seeded chooser).
type Stepper interface {
	Register(ident.ObjectID, transport.Handler)
	Send(transport.Message) error
	Drain(int) error
	Close() error
}

// NewStepFabric adapts a single-goroutine backend: Send takes a lock, so
// senders on their own goroutines are serialised, and Settle is an explicit
// drain.
func NewStepFabric(f Stepper) Fabric { return &stepFabric{f: f} }

type stepFabric struct {
	mu sync.Mutex
	f  Stepper
}

func (s *stepFabric) Register(obj ident.ObjectID, h transport.Handler) { s.f.Register(obj, h) }
func (s *stepFabric) Settle(func() int, int) error                     { return s.f.Drain(1 << 20) }
func (s *stepFabric) Close()                                           { _ = s.f.Close() }

func (s *stepFabric) Send(m transport.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Send(m) //protolint:allow locksend a step fabric's Send only queues; handlers run in Settle, outside the lock
}

// awaitCount waits for an asynchronous backend's delivery count to reach
// want within the deadline, then grants a settling period so late extras would
// still be observed by the caller's assertions.
func awaitCount(count func() int, want int, deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for count() < want {
		if time.Now().After(limit) {
			return fmt.Errorf("delivered %d of %d before timeout", count(), want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	return nil
}

// inbox gives a handler a pump of its own, closed when its port stops. The
// fabrics call a handler on the delivering goroutine, often the sender's, and
// the handlers these adapters serve step an engine under a lock and then
// send: called inline, a send could re-enter the lock of the handler that
// made it.
func inbox(h transport.Handler) (put transport.Handler, stopped func()) {
	p := fifo.Start(nil, h, nil)
	return p.Put, p.Close
}

// concurrentFabric adapts the in-process concurrent backend, owning the
// netsim network under it.
type concurrentFabric struct {
	net    *netsim.Network
	c      *transport.Concurrent
	next   ident.NodeID
	settle time.Duration
}

// NewConcurrentFabric builds a Concurrent fabric over a fresh instant
// netsim network; Settle waits up to settle for the expected deliveries.
func NewConcurrentFabric(opts Options, settle time.Duration) Fabric {
	net := netsim.New(netsim.Config{})
	c := transport.NewConcurrent(net, transport.ConcurrentOptions{
		Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
	})
	return &concurrentFabric{net: net, c: c, next: 1000, settle: settle}
}

func (f *concurrentFabric) Register(obj ident.ObjectID, h transport.Handler) {
	f.next++
	put, stopped := inbox(h)
	if _, err := f.c.BindFunc(obj, f.next, put, stopped); err != nil {
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
// space) per object, routed to each other through a shared address book via
// the Resolve hook — the same topology a multi-process deployment has, with
// every message genuinely crossing a socket.
type tcpFabric struct {
	opts   Options
	settle time.Duration

	mu      sync.Mutex
	fabrics map[ident.ObjectID]*transport.TCP
	book    map[ident.ObjectID]string
}

// NewTCPFabric builds the socket universe. Sockets carry bytes: payloads
// that are not already bytes or strings need opts.Codec.
func NewTCPFabric(opts Options, settle time.Duration) Fabric {
	return &tcpFabric{
		opts:    opts,
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
		Codec:   f.opts.Codec,
		Sink:    f.opts.Sink,
		Faults:  f.opts.Faults,
		Resolve: f.addrOf,
	})
	if err != nil {
		panic(err)
	}
	put, stopped := inbox(h)
	if _, err := fab.BindFunc(obj, put, stopped); err != nil {
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
