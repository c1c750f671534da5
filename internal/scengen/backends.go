package scengen

import (
	"time"

	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
	"repro/internal/wire"
)

// protoBackend names one protocol-tier subject fabric.
type protoBackend struct {
	name string
	make func(settle time.Duration) conformancetest.Fabric
}

// protoBackends lists the subjects the protocol tier diffs against the
// protocol.Sim reference: the deterministic fabric (scheduling sanity), the
// goroutine-per-endpoint fabric, and real loopback sockets. The adapters are
// the transport conformance suite's.
func protoBackends() []protoBackend {
	return []protoBackend{
		{name: "proto/deterministic", make: func(time.Duration) conformancetest.Fabric {
			return conformancetest.NewStepFabric(transport.NewDeterministic(transport.Options{}))
		}},
		{name: "proto/concurrent", make: func(settle time.Duration) conformancetest.Fabric {
			return conformancetest.NewConcurrentFabric(conformancetest.Options{}, settle)
		}},
		{name: "proto/tcp", make: func(settle time.Duration) conformancetest.Fabric {
			// Sockets carry bytes: protocol messages need the wire codec.
			return conformancetest.NewTCPFabric(conformancetest.Options{Codec: wire.Codec{}}, settle)
		}},
	}
}
