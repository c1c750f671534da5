package transport_test

import (
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
			return conformancetest.NewStepFabric(transport.NewRandomized(99, transport.Options{
				Codec: opts.Codec, Sink: opts.Sink, Faults: opts.Faults,
			}))
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
		conformancetest.RunResolutionEquivalence(t, newDeterministicFabric)
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
		conformancetest.RunMultiplexedEquivalence(t, newDeterministicFabric)
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
