package transport_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/scengen"
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
// the Deterministic reference's. The message-level suite proves deliveries
// arrive intact and in order; this proves the property those guarantees
// exist for: the protocol's outcome does not depend on which fabric carries
// it, nor on how a concurrent backend interleaves or batches deliveries. The
// TCP leg is the proof that the protocol needs nothing of its carrier but
// asynchrony, per-pair FIFO and disjoint address spaces: one socket fabric
// per object, every message crossing loopback as wire-codec bytes.
func TestResolutionEquivalence(t *testing.T) {
	grid := []struct{ n, p, q int }{
		{2, 1, 0}, {3, 2, 0}, {4, 1, 3}, {4, 4, 0}, {5, 2, 2}, {8, 3, 4}, {8, 8, 0},
	}
	forEachFabric(t, func(t *testing.T, factory conformancetest.Factory) {
		for _, c := range grid {
			t.Run(fmt.Sprintf("N=%d,P=%d,Q=%d", c.n, c.p, c.q), func(t *testing.T) {
				prog, err := scengen.Grid(c.n, c.p, c.q, 1, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				runEquivalence(t, factory, prog)
			})
		}
	})
}

// TestMultiplexedEquivalence holds the backends to the multiplexed-runtime
// contract: K action families interleaved over ONE fabric — every object
// registered once, its deliveries demultiplexed to per-family engines by the
// Message.Action routing tag — each committing exactly the resolutions the
// Deterministic reference commits for it alone. multiplexedGrid rotates the
// raised exceptions per family, so adjacent single-raiser families resolve
// different exceptions: a frame delivered under the wrong action tag is
// either unroutable (an execution error) or skews a family away from its solo
// baseline. On TCP the action tag crosses the wire inside the binary frame.
func TestMultiplexedEquivalence(t *testing.T) {
	grid := []struct{ n, p, q, k int }{
		{2, 1, 0, 6}, {4, 1, 3, 4}, {4, 4, 0, 8},
	}
	forEachFabric(t, func(t *testing.T, factory conformancetest.Factory) {
		for _, c := range grid {
			t.Run(fmt.Sprintf("N=%d,P=%d,Q=%d,K=%d", c.n, c.p, c.q, c.k), func(t *testing.T) {
				runEquivalence(t, factory, multiplexedGrid(t, c.n, c.p, c.q, c.k))
			})
		}
	})
}

// forEachFabric runs body once per protocol-carrying fabric.
func forEachFabric(t *testing.T, body func(*testing.T, conformancetest.Factory)) {
	t.Run("Deterministic", func(t *testing.T) { body(t, newDeterministicFabric) })
	t.Run("Concurrent", func(t *testing.T) { body(t, newConcurrentFabric) })
	t.Run("TCP", func(t *testing.T) { body(t, newWireTCPFabric) })
}

// multiplexedGrid copies the §4.4 grid's family k times; raiser i of family
// f raises exc((i+f) mod n + 1).
func multiplexedGrid(t *testing.T, n, p, q, k int) *scengen.Program {
	prog, err := scengen.Grid(n, p, q, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	base := prog.Families[0]
	prog.Families = nil
	for f := 0; f < k; f++ {
		fam := base
		fam.Raises = make([]scengen.Raise, len(base.Raises))
		for i, r := range base.Raises {
			r.Exc = fmt.Sprintf("exc%d", (i+f)%n+1)
			fam.Raises[i] = r
		}
		prog.Families = append(prog.Families, fam)
	}
	return prog
}

// runEquivalence runs one program on the reference and on a fresh fabric and
// reports every (family, object, action) commit on which they differ.
func runEquivalence(t *testing.T, factory conformancetest.Factory, prog *scengen.Program) {
	defer conformancetest.LeakCheck(t)()
	want, _, err := scengen.ReferenceResolutions(prog)
	if err != nil {
		t.Fatal(err)
	}
	fab := factory(t, conformancetest.Options{})
	defer fab.Close()
	got, err := scengen.FabricResolutions(fab, prog, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(got); diff != "" {
		t.Error(diff)
	}
}
