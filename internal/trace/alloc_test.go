//go:build !race

package trace

import "testing"

// TestRecordAllocFree is the gate behind the //caa:noalloc marks on Record
// and countSend: recording into a census-only log, the log every server
// builds without Options.Trace, costs no allocation, and counting a send of a
// kind the log has seen never does.
func TestRecordAllocFree(t *testing.T) {
	l := NewCensus()
	l.Record(Event{Kind: EvState, Object: 1, Label: "N"})
	if n := testing.AllocsPerRun(1000, func() {
		l.Record(Event{Kind: EvState, Object: 1, Label: "N"})
	}); n != 0 {
		t.Errorf("Record of a state event: %v allocs, want 0", n)
	}
	// The five kind names of the resolution protocol (internal/protocol,
	// which imports this package).
	for _, kind := range []string{"Exception", "HaveNested", "NestedCompleted", "ACK", "Commit"} {
		send := Event{Kind: EvSend, Object: 1, Peer: 2, Action: 1, Label: kind}
		l.Record(send)
		if n := testing.AllocsPerRun(1000, func() { l.Record(send) }); n != 0 {
			t.Errorf("Record of a %s send: %v allocs, want 0", kind, n)
		}
	}
}
