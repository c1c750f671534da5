package transport_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
	"repro/internal/wire"
)

// TestConformance holds every fabric to the one shared contract. A new
// backend earns its place here by passing the same suite unchanged.
func TestConformance(t *testing.T) {
	t.Run("Deterministic", func(t *testing.T) {
		conformancetest.Run(t, func(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
			return &stepFabric{f: transport.NewDeterministic(transport.Options{
				Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
			})}
		})
	})
	t.Run("Randomized", func(t *testing.T) {
		conformancetest.Run(t, func(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
			return &stepFabric{f: transport.NewRandomized(99, transport.Options{
				Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
			})}
		})
	})
	t.Run("Concurrent", func(t *testing.T) {
		conformancetest.Run(t, newConcurrentFabric)
	})
	t.Run("TCP", func(t *testing.T) {
		conformancetest.Run(t, newTCPFabric)
	})
}

// TestResolutionEquivalence holds the backends behind the hot experiment
// paths to protocol-level equivalence: the resolution each one commits on the
// §4.4 grid must be byte-identical to the Deterministic reference. (TCP is
// exercised by the message-level suite above; running the full grid over
// sockets adds minutes, not coverage.)
func TestResolutionEquivalence(t *testing.T) {
	t.Run("Deterministic", func(t *testing.T) {
		conformancetest.RunResolutionEquivalence(t, func(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
			return &stepFabric{f: transport.NewDeterministic(transport.Options{
				Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
			})}
		})
	})
	t.Run("Concurrent", func(t *testing.T) {
		conformancetest.RunResolutionEquivalence(t, newConcurrentFabric)
	})
}

// TestMultiplexedEquivalence holds the backends to the multiplexed-runtime
// contract: K action families interleaved over one fabric, demultiplexed by
// the Message.Action routing tag, each committing its solo-run resolution.
// Unlike the solo grid this one includes TCP, because the action tag crosses
// the wire inside the binary frame and that encoding path deserves
// end-to-end coverage (the grid here is small enough that sockets stay
// cheap).
func TestMultiplexedEquivalence(t *testing.T) {
	t.Run("Deterministic", func(t *testing.T) {
		conformancetest.RunMultiplexedEquivalence(t, func(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
			return &stepFabric{f: transport.NewDeterministic(transport.Options{
				Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
			})}
		})
	})
	t.Run("Concurrent", func(t *testing.T) {
		conformancetest.RunMultiplexedEquivalence(t, newConcurrentFabric)
	})
	t.Run("TCP", func(t *testing.T) {
		conformancetest.RunMultiplexedEquivalence(t, func(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
			// Sockets carry bytes: protocol messages need the wire codec.
			opts.Codec = wire.Codec{}
			return newTCPFabric(t, opts)
		})
	})
}

// stepFabric adapts the single-goroutine backends (Deterministic,
// Randomized): Settle is an explicit drain.
type stepFabric struct {
	f interface {
		Register(ident.ObjectID, transport.Handler)
		Send(transport.Message) error
		Drain(int) error
		Close() error
	}
}

func (s *stepFabric) Register(obj ident.ObjectID, h transport.Handler) { s.f.Register(obj, h) }
func (s *stepFabric) Send(m transport.Message) error                   { return s.f.Send(m) }
func (s *stepFabric) Settle(func() int, int) error                     { return s.f.Drain(1 << 20) }
func (s *stepFabric) Close()                                           { _ = s.f.Close() }

// awaitCount waits for an asynchronous backend's delivery count to reach
// want, then grants a grace period so late extras would still be observed by
// the caller's assertions.
func awaitCount(count func() int, want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for count() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("delivered %d of %d before timeout", count(), want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	return nil
}

// concurrentFabric adapts the goroutine-per-endpoint backend, owning the
// netsim network under it.
type concurrentFabric struct {
	net  *netsim.Network
	c    *transport.Concurrent
	next ident.NodeID
}

func newConcurrentFabric(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
	net := netsim.New(netsim.Config{})
	c := transport.NewConcurrent(net, transport.ConcurrentOptions{
		Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
	})
	return &concurrentFabric{net: net, c: c, next: 1000}
}

func (f *concurrentFabric) Register(obj ident.ObjectID, h transport.Handler) {
	f.next++
	if _, err := f.c.BindFunc(obj, f.next, h, nil); err != nil {
		panic(err)
	}
}

func (f *concurrentFabric) Send(m transport.Message) error          { return f.c.Send(m) }
func (f *concurrentFabric) Settle(count func() int, want int) error { return awaitCount(count, want) }
func (f *concurrentFabric) Close() {
	_ = f.c.Close()
	f.net.Close()
}

// tcpFabric adapts the socket backend: one TCP fabric (listener, address
// space) per object, routed to each other through a shared address book via
// the Resolve hook — the same topology a multi-process deployment has, with
// every message genuinely crossing a socket.
type tcpFabric struct {
	t    *testing.T
	opts conformancetest.Options

	mu      sync.Mutex
	fabrics map[ident.ObjectID]*transport.TCP
	book    map[ident.ObjectID]string
}

func newTCPFabric(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
	return &tcpFabric{
		t:       t,
		opts:    opts,
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
		f.t.Fatal(err)
	}
	if _, err := fab.BindFunc(obj, h, nil); err != nil {
		f.t.Fatal(err)
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

func (f *tcpFabric) Settle(count func() int, want int) error { return awaitCount(count, want) }

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
