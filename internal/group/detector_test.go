package group

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// detectorCluster builds n detectors over one network, returning them plus
// the node each object lives on (for partitioning).
func detectorCluster(t *testing.T, n int, interval, timeout time.Duration) (*netsim.Network, []*Detector, map[ident.ObjectID]ident.NodeID) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	dir := NewDirectory(net)
	members := make([]ident.ObjectID, n)
	for i := range members {
		members[i] = ident.ObjectID(i + 1)
	}
	detectors := make([]*Detector, n)
	nodes := make(map[ident.ObjectID]ident.NodeID, n)
	for i, m := range members {
		tr, err := NewRawTransport(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		node, err := dir.Lookup(m)
		if err != nil {
			t.Fatal(err)
		}
		nodes[m] = node
		detectors[i] = NewDetector(tr, members, interval, timeout, nil)
		t.Cleanup(tr.Close)
	}
	t.Cleanup(func() {
		for _, d := range detectors {
			d.Stop()
		}
		net.Close()
	})
	return net, detectors, nodes
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if cond() {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestDetectorAllAlive(t *testing.T) {
	_, detectors, _ := detectorCluster(t, 3, time.Millisecond, 50*time.Millisecond)
	waitFor(t, "everyone alive", func() bool {
		for _, d := range detectors {
			if len(d.Alive()) != 2 || len(d.Suspects()) != 0 {
				return false
			}
		}
		return true
	})
}

func TestDetectorSuspectsPartitionedNode(t *testing.T) {
	net, detectors, nodes := detectorCluster(t, 3, time.Millisecond, 20*time.Millisecond)
	waitFor(t, "initial liveness", func() bool {
		return len(detectors[0].Alive()) == 2
	})

	// Partition O3's node away.
	net.Isolate(nodes[3])
	waitFor(t, "O3 suspected by O1 and O2", func() bool {
		return detectors[0].Suspected(3) && detectors[1].Suspected(3)
	})
	// O1 and O2 still see each other.
	if detectors[0].Suspected(2) || detectors[1].Suspected(1) {
		t.Error("connected peers wrongly suspected")
	}
	// The isolated node suspects everyone.
	waitFor(t, "O3 suspects the rest", func() bool {
		return len(detectors[2].Suspects()) == 2
	})

	// Heal: O3 must come back.
	net.Heal(nodes[3])
	waitFor(t, "O3 alive again", func() bool {
		return !detectors[0].Suspected(3) && !detectors[1].Suspected(3)
	})
}

func TestDetectorStopIdempotent(t *testing.T) {
	_, detectors, _ := detectorCluster(t, 2, time.Millisecond, 10*time.Millisecond)
	detectors[0].Stop()
	detectors[0].Stop()
}

func TestNetworkIsolateDropsBothDirections(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	net.Isolate(2)
	if err := a.Send(2, "m", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(1, "m", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-a.Recv():
		t.Fatalf("message %v crossed a partition", m)
	case m := <-b.Recv():
		t.Fatalf("message %v crossed a partition", m)
	case <-time.After(20 * time.Millisecond):
	}
	st := net.Stats()
	if st.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", st.Dropped)
	}
	// Heal restores connectivity.
	net.Heal(2)
	if err := a.Send(2, "m2", nil); err != nil {
		t.Fatal(err)
	}
	m := <-b.Recv()
	if m.Kind != "m2" {
		t.Errorf("got %v", m)
	}
}

// fakeClock is a manual clock for driving the detector's suspicion logic
// deterministically: timers and tickers still fly in real time (embedded
// vclock.Real), but Now — and therefore staleness — is judged against fake
// time, so a test can age the world at will without stalling heartbeats.
type fakeClock struct {
	vclock.Real
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDetectorSuspectResumeUnsuspectUnderJitter drives the full suspicion
// cycle — alive, partitioned and suspected, healed and unsuspected — on a
// jittery network, with the clock seam injected so the timeout is crossed by
// advancing fake time, not by sleeping it off.
func TestDetectorSuspectResumeUnsuspectUnderJitter(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	const timeout = 50 * time.Millisecond // fake time

	net := netsim.New(netsim.Config{Latency: netsim.JitterLatency(0, 2*time.Millisecond, 7)})
	defer net.Close()
	dir := NewDirectory(net)
	members := []ident.ObjectID{1, 2, 3}
	detectors := make([]*Detector, len(members))
	nodes := make(map[ident.ObjectID]ident.NodeID, len(members))
	for i, m := range members {
		tr, err := NewRawTransport(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		node, err := dir.Lookup(m)
		if err != nil {
			t.Fatal(err)
		}
		nodes[m] = node
		// Beats are four times the mean link delay apart. A pair's link is
		// serial, so beats sent as fast as the link delivers them (1 ms
		// against a 0-2 ms draw, plus timer slack under -race) pile up on
		// it, and O3's backlog would go on arriving, and re-stamping O3,
		// long after the partition below.
		detectors[i] = NewDetector(tr, members, 4*time.Millisecond, timeout, clock)
		t.Cleanup(tr.Close)
	}
	defer func() {
		for _, d := range detectors {
			d.Stop()
		}
	}()

	waitFor(t, "initial liveness", func() bool {
		return len(detectors[0].Alive()) == 2 && len(detectors[1].Alive()) == 2
	})

	// Fake time does not advance on its own: nobody becomes suspect no
	// matter how much real time the jittery heartbeats take.
	time.Sleep(10 * time.Millisecond)
	if s := detectors[0].Suspects(); len(s) != 0 {
		t.Fatalf("suspects with frozen clock: %v", s)
	}

	// Partition O3 away, let its in-flight heartbeats (jitter-delayed) drain
	// in real time, then age the world past the timeout. O1/O2 keep
	// re-stamping each other at current fake time; O3's stamp goes stale.
	net.Isolate(nodes[3])
	time.Sleep(10 * time.Millisecond)
	clock.Advance(timeout + time.Millisecond)
	waitFor(t, "O3 suspected under jitter", func() bool {
		return detectors[0].Suspected(3) && detectors[1].Suspected(3) &&
			!detectors[0].Suspected(2) && !detectors[1].Suspected(1)
	})

	// Heal: heartbeats resume (still jittered) and must clear the suspicion
	// without the clock ever moving backward.
	net.Heal(nodes[3])
	waitFor(t, "O3 unsuspected after heartbeats resume", func() bool {
		return !detectors[0].Suspected(3) && !detectors[1].Suspected(3)
	})
}

// TestFedDetectorObserve checks the passive mode: the detector never touches
// the transport's Recv stream (its owner does), and suspicion is driven
// purely by Observe calls.
func TestFedDetectorObserve(t *testing.T) {
	clock := &fakeClock{t: time.Unix(2000, 0)}
	const timeout = 20 * time.Millisecond

	net := netsim.New(netsim.Config{})
	defer net.Close()
	dir := NewDirectory(net)
	tr, err := NewRawTransport(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	d := NewFedDetector(1, tr.Send, []ident.ObjectID{1, 2}, time.Millisecond, timeout, clock)
	defer d.Stop()

	if d.Suspected(2) {
		t.Fatal("peer suspected during the grace period")
	}
	clock.Advance(timeout + time.Millisecond)
	waitFor(t, "peer suspected without observations", func() bool { return d.Suspected(2) })

	d.Observe(2)
	if d.Suspected(2) {
		t.Fatal("peer still suspected after Observe")
	}
	d.Observe(42) // unknown sender: ignored, not adopted into the peer set
	if got := len(d.Alive()); got != 1 {
		t.Fatalf("alive = %d, want 1", got)
	}

	// The owner of the transport still sees the raw heartbeat traffic the
	// fed detector emits elsewhere; here, verify our own beats reach a peer
	// transport untouched by any detector.
	tr2, err := NewRawTransport(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	select {
	case msg := <-tr2.Recv():
		if msg.Kind != KindHeartbeat || msg.From != 1 {
			t.Fatalf("unexpected delivery %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no heartbeat reached the peer transport")
	}
}
