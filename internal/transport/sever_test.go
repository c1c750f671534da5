package transport_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
)

// TestTCPReconnect severs the live connection mid-stream through a relay:
// the sender must redial and later messages must still arrive, while FIFO
// order among the survivors is preserved.
func TestTCPReconnect(t *testing.T) {
	const n = 60
	receiver, err := transport.NewTCP(transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	port, err := receiver.Bind(2)
	if err != nil {
		t.Fatal(err)
	}

	relay, err := conformancetest.NewSeverRelay(receiver.Addr(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	sender, err := transport.NewTCP(transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.SetPeer(2, relay.Addr())

	send := func(i int) {
		t.Helper()
		if err := sender.Send(transport.Message{From: 1, To: 2, Kind: "k", Payload: fmt.Sprintf("%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		send(i)
		// Pace the stream so each frame is a chunk of its own and severs land
		// between frames, exercising several reconnect cycles rather than one
		// burst.
		time.Sleep(time.Millisecond)
	}

	// At-most-once across severs: some messages may be lost to broken
	// connections (including the last one), none may be duplicated or
	// reordered. Keep sending sentinels until one survives — per-pair FIFO
	// guarantees every surviving burst message precedes it.
	var got []int
	timeout := time.After(10 * time.Second)
	retry := time.NewTicker(5 * time.Millisecond)
	defer retry.Stop()
	next := n
loop:
	for {
		select {
		case m := <-port.Recv():
			var v int
			fmt.Sscanf(m.Payload.(string), "%d", &v)
			if v >= n {
				break loop // a sentinel made it through
			}
			got = append(got, v)
		case <-retry.C:
			send(next)
			next++
		case <-timeout:
			t.Fatalf("no sentinel arrived; got %d messages %v", len(got), got)
		}
	}
	if len(got) < n/2 {
		t.Fatalf("only %d/%d survived — severs should lose at most a frame or two each", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated or duplicate at %d: %v", i, got)
		}
	}
	if cuts := relay.Severed(); cuts < 3 {
		t.Errorf("the relay cut %d connections, want several reconnect cycles", cuts)
	}
}
