//go:build !race

package trace

import "testing"

// TestRecordAllocFree is the gate behind the //caa:noalloc marks on Record
// and countSend: once a ring has filled, recording costs no allocation, and
// counting a send of a kind the log has seen never does.
func TestRecordAllocFree(t *testing.T) {
	const capacity = 4 * logShardCount
	ring := NewRing(capacity)
	for i := 0; i < capacity; i++ {
		ring.Record(Event{Kind: EvState, Object: 1, Label: "N"})
	}
	if n := testing.AllocsPerRun(1000, func() {
		ring.Record(Event{Kind: EvState, Object: 1, Label: "N"})
	}); n != 0 {
		t.Errorf("Record on a full ring: %v allocs, want 0", n)
	}
	// The five kind names of the resolution protocol (internal/protocol,
	// which imports this package).
	for _, kind := range []string{"Exception", "HaveNested", "NestedCompleted", "ACK", "Commit"} {
		send := Event{Kind: EvSend, Object: 1, Peer: 2, Action: 1, Label: kind}
		ring.Record(send)
		if n := testing.AllocsPerRun(1000, func() { ring.Record(send) }); n != 0 {
			t.Errorf("Record of a %s send: %v allocs, want 0", kind, n)
		}
	}
}
