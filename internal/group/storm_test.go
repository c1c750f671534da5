package group

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestNoRetransmissionStorm is the regression test for a congestion
// collapse found under benchmark load: the retransmission ticker used to
// re-blast the entire unacked window every period while ack processing
// scanned the whole window per ack — duplicates begot re-acks, ack
// processing fell behind, and throughput collapsed (24M network messages for
// 2000 application sends). With per-message exponential backoff and
// cumulative-watermark ack processing, the per-message overhead must stay a
// small constant.
func TestNoRetransmissionStorm(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	dir := NewDirectory(net)
	src, err := NewR3Transport(dir, 1, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewR3Transport(dir, 2, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()

	const n = 8000
	for i := 0; i < n; i++ {
		if err := src.Send(2, "m", i); err != nil {
			t.Fatal(err)
		}
		d := <-dst.Recv()
		if d.Payload.(int) != i {
			t.Fatalf("out of order at %d", i)
		}
	}
	sent := net.Stats().Sent
	// Ideal cost is 2n (data + ack); allow duplicates and their re-acks up
	// to an average overhead factor of 8 before calling it a storm.
	if sent > 8*2*n {
		t.Fatalf("network sends = %d for %d app messages (storm regression)", sent, n)
	}
	// The unacked window must be small once everything is acknowledged.
	deadline := time.After(2 * time.Second)
	for {
		src.mu.Lock()
		pending := src.peers[2].unacked.Len()
		src.mu.Unlock()
		if pending < 64 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("unacked window did not drain: %d entries", pending)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
