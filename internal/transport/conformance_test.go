package transport_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
	"repro/internal/wire"
)

// settle is how long the asynchronous fabrics may take to deliver what a
// subtest sent.
const settle = 10 * time.Second

func newDeterministicFabric(_ *testing.T, opts conformancetest.Options) conformancetest.Fabric {
	return conformancetest.NewStepFabric(transport.NewDeterministic(transport.Options{
		Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
	}))
}

func newConcurrentFabric(_ *testing.T, opts conformancetest.Options) conformancetest.Fabric {
	return conformancetest.NewConcurrentFabric(opts, settle)
}

func newTCPFabric(_ *testing.T, opts conformancetest.Options) conformancetest.Fabric {
	return conformancetest.NewTCPFabric(opts, settle)
}

// TestConformance holds every fabric to the one shared contract. A new
// backend earns its place here by passing the same suite unchanged.
func TestConformance(t *testing.T) {
	t.Run("Deterministic", func(t *testing.T) {
		conformancetest.Run(t, newDeterministicFabric)
	})
	t.Run("Randomized", func(t *testing.T) {
		conformancetest.Run(t, func(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
			d := transport.NewDeterministic(transport.Options{
				Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
			})
			d.SetChooser(transport.RandChooser(rand.New(rand.NewSource(99))))
			return conformancetest.NewStepFabric(d)
		})
	})
	t.Run("Concurrent", func(t *testing.T) {
		conformancetest.Run(t, newConcurrentFabric)
	})
	t.Run("TCP", func(t *testing.T) {
		conformancetest.Run(t, newTCPFabric)
	})
}

// newWireTCPFabric is the socket fabric for protocol traffic: sockets carry
// bytes, so protocol messages need the wire codec.
func newWireTCPFabric(t *testing.T, opts conformancetest.Options) conformancetest.Fabric {
	opts.Codec = wire.Codec{}
	return newTCPFabric(t, opts)
}

// TestResolutionEquivalence holds the backends to protocol-level
// equivalence: every resolution each one commits on the §4.4 grid must equal
// the Deterministic reference's. The TCP leg is the proof that the protocol
// needs nothing of its carrier but asynchrony, per-pair FIFO and disjoint
// address spaces: one socket fabric per object, every message crossing
// loopback as wire-codec bytes.
func TestResolutionEquivalence(t *testing.T) {
	t.Run("Deterministic", func(t *testing.T) {
		conformancetest.RunResolutionEquivalence(t, newDeterministicFabric)
	})
	t.Run("Concurrent", func(t *testing.T) {
		conformancetest.RunResolutionEquivalence(t, newConcurrentFabric)
	})
	t.Run("TCP", func(t *testing.T) {
		conformancetest.RunResolutionEquivalence(t, newWireTCPFabric)
	})
}

// TestMultiplexedEquivalence holds the backends to the multiplexed-runtime
// contract: K action families interleaved over one fabric, demultiplexed by
// the Message.Action routing tag, each committing its solo-run resolutions.
// On TCP the action tag crosses the wire inside the binary frame.
func TestMultiplexedEquivalence(t *testing.T) {
	t.Run("Deterministic", func(t *testing.T) {
		conformancetest.RunMultiplexedEquivalence(t, newDeterministicFabric)
	})
	t.Run("Concurrent", func(t *testing.T) {
		conformancetest.RunMultiplexedEquivalence(t, newConcurrentFabric)
	})
	t.Run("TCP", func(t *testing.T) {
		conformancetest.RunMultiplexedEquivalence(t, newWireTCPFabric)
	})
}
