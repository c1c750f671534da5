//go:build !race

package transport

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/netsim"
)

// TestConcurrentPortBodyAllocs pins the in-process per-message path at zero
// allocations: a protocol body sent from one Port reaches the other's handler
// over instant netsim as a value, through the fabric, the network and the
// destination's inbox, with nothing boxed on the way. (Not built under the
// race detector, whose instrumentation allocates on its own.)
func TestConcurrentPortBodyAllocs(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	c := NewConcurrent(net, ConcurrentOptions{})
	defer c.Close()
	src, err := c.Bind(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Bind(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := Message{To: 2, Kind: "Exception", Action: 7,
		Body: Body{Action: 9, Path: []ident.ActionID{7, 9}, Exc: "left_engine_exception"}}
	roundTrip := func() {
		if err := src.SendMessage(m); err != nil {
			t.Fatal(err)
		}
		if got := <-dst.Recv(); got.From != 1 || got.Body.Exc != m.Body.Exc || got.Body.Path[1] != 9 {
			t.Fatalf("delivered %+v", got)
		}
	}
	roundTrip() // warm-up grows the inbox's buffer
	if avg := testing.AllocsPerRun(500, roundTrip); avg != 0 {
		t.Fatalf("port to port: %v allocs/message, want 0", avg)
	}
}
