//go:build !race

package transport

import "testing"

// TestTCPPortInboxAllocs pins the inbox at zero allocations in steady state.
// One message at a time is the worst case for the old `queue = queue[1:]`
// pop: every pop shrank the capacity left in front of the slice, so every
// append found none and took a fresh array. (Not built under the race
// detector, whose instrumentation allocates on its own.)
func TestTCPPortInboxAllocs(t *testing.T) {
	fab, err := NewTCP(TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	port, err := fab.Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	m := Message{From: 1, To: 2, Kind: "k"}
	roundTrip := func() {
		if err := fab.Send(m); err != nil {
			t.Fatal(err)
		}
		<-port.Recv()
	}
	roundTrip() // warm-up allocates the inbox's array
	if avg := testing.AllocsPerRun(500, roundTrip); avg != 0 {
		t.Fatalf("local send + receive: %v allocs/op, want 0", avg)
	}
}
