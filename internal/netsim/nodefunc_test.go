package netsim

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNodeFuncDelivery: a NodeFunc endpoint has no netsim inbox. Each
// arriving copy is one deliver call, in send order, instantly or through the
// pair's link, and the counters read as they do for Node endpoints.
func TestNodeFuncDelivery(t *testing.T) {
	for name, cfg := range map[string]Config{
		"instant": {},
		"latency": {Latency: FixedLatency(50 * time.Microsecond)},
		"dup":     {DupRate: 0.3, Seed: 3},
	} {
		t.Run(name, func(t *testing.T) {
			net := New(cfg)
			var mu sync.Mutex
			var got []int
			var closedCalls atomic.Int32
			ep, err := net.NodeFunc(2, func(m Message) {
				mu.Lock()
				got = append(got, m.Payload.(int))
				mu.Unlock()
			}, func() { closedCalls.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			if ep.Recv() != nil {
				t.Error("a NodeFunc endpoint has a Recv channel")
			}
			if _, err := net.NodeFunc(2, func(Message) {}, nil); !errors.Is(err, ErrNodeTaken) {
				t.Errorf("second NodeFunc on one node: %v, want ErrNodeTaken", err)
			}
			a := net.Node(1)
			const n = 200
			for i := 0; i < n; i++ {
				if err := a.Send(2, "m", i); err != nil {
					t.Fatal(err)
				}
			}
			want := n + net.Stats().Duplicated
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				arrived := len(got)
				mu.Unlock()
				if arrived == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d copies delivered", arrived, want)
				}
				time.Sleep(100 * time.Microsecond)
			}
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					t.Fatalf("delivery %d carries %d after %d", i, got[i], got[i-1])
				}
			}
			if st := net.Stats(); st.Sent != n || st.Delivered != want || st.Dropped != 0 {
				t.Errorf("stats %v, want sent=%d delivered=%d dropped=0", st, n, want)
			}
			net.Close()
			net.Close()
			if c := closedCalls.Load(); c != 1 {
				t.Errorf("closed hook ran %d times, want once", c)
			}
		})
	}
}

// TestLinkReleasesConsumed: a message the link has handed over is no longer
// reachable through the link's queue. Re-slicing the front away kept every
// consumed payload alive until the backing array was replaced.
func TestLinkReleasesConsumed(t *testing.T) {
	net := New(Config{Latency: FixedLatency(time.Microsecond)})
	defer net.Close()
	a, b := net.Node(1), net.Node(2)
	const n = 8
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		payload := new([64]byte)
		runtime.SetFinalizer(payload, func(*[64]byte) { freed.Add(1) })
		if err := a.Send(2, "m", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		<-b.Recv()
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d consumed payloads are still reachable", n-freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
