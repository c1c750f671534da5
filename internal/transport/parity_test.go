package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/netsim"
)

// TestFaultScheduleParity pins down the property the shared FaultPolicy seam
// exists for: the same seeded drop/duplicate schedule produces the same
// delivered-message multiset on the Deterministic and the Concurrent backend,
// even though one delivers step-by-step on a single goroutine and the other
// through concurrent netsim endpoints. SeededFaults verdicts depend only on
// (seed, pair, per-pair sequence number), never on cross-pair interleaving,
// which makes the multisets comparable.
func TestFaultScheduleParity(t *testing.T) {
	const (
		seed     = 2026
		dropRate = 0.25
		dupRate  = 0.15
		objects  = 4
		perPair  = 40
	)

	// sends enumerates the workload identically for both backends: every
	// ordered pair exchanges perPair numbered messages.
	sends := func(send func(m Message) error) error {
		for i := 0; i < perPair; i++ {
			for from := 1; from <= objects; from++ {
				for to := 1; to <= objects; to++ {
					if from == to {
						continue
					}
					m := Message{
						From:    ident.ObjectID(from),
						To:      ident.ObjectID(to),
						Kind:    "k",
						Payload: fmt.Sprintf("%d->%d#%d", from, to, i),
					}
					if err := send(m); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	// Deterministic run.
	detGot := make(map[string]int)
	det := NewDeterministic(Options{Faults: SeededFaults(seed, dropRate, dupRate)})
	for o := 1; o <= objects; o++ {
		det.Register(ident.ObjectID(o), func(m Message) {
			detGot[m.Payload.(string)]++
		})
	}
	if err := sends(det.Send); err != nil {
		t.Fatal(err)
	}
	if err := det.Drain(1 << 20); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, n := range detGot {
		delivered += n
	}
	if delivered == 0 || delivered == objects*(objects-1)*perPair {
		t.Fatalf("degenerate schedule: %d deliveries of %d sends (faults did not engage)",
			delivered, objects*(objects-1)*perPair)
	}

	// Concurrent run: same fault schedule, goroutine-per-endpoint fabric over
	// a reliable zero-latency network (faults live in the transport layer).
	net := netsim.New(netsim.Config{})
	defer net.Close()
	c := NewConcurrent(net, ConcurrentOptions{Faults: SeededFaults(seed, dropRate, dupRate)})
	defer c.Close()

	var mu sync.Mutex
	conGot := make(map[string]int)
	conCount := 0
	ports := make(map[ident.ObjectID]*Port)
	for o := 1; o <= objects; o++ {
		obj := ident.ObjectID(o)
		port, err := c.BindFunc(obj, ident.NodeID(100+o), func(m Message) {
			mu.Lock()
			defer mu.Unlock()
			conGot[m.Payload.(string)]++
			conCount++
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ports[obj] = port
	}
	// Sends fan out from per-object goroutines so the interleaving genuinely
	// differs from the deterministic run; per-pair FIFO and the per-pair
	// fault sequence are what keep the multiset stable.
	var wg sync.WaitGroup
	for from := 1; from <= objects; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < perPair; i++ {
				for to := 1; to <= objects; to++ {
					if from == to {
						continue
					}
					err := ports[ident.ObjectID(from)].Send(ident.ObjectID(to), "k",
						fmt.Sprintf("%d->%d#%d", from, to, i))
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(from)
	}
	wg.Wait()

	// The deterministic run fixes the expected delivery count; wait for the
	// concurrent fabric to reach it (netsim.Close discards queued messages,
	// so the wait must come first).
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := conCount
		mu.Unlock()
		if n >= delivered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("concurrent backend delivered %d, deterministic delivered %d", n, delivered)
		}
		time.Sleep(time.Millisecond)
	}
	// Grace period: extra (unexpected) deliveries would surface here.
	time.Sleep(20 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if conCount != delivered {
		t.Errorf("delivery counts differ: concurrent %d, deterministic %d", conCount, delivered)
	}
	for k, want := range detGot {
		if got := conGot[k]; got != want {
			t.Errorf("message %q: concurrent delivered %d, deterministic %d", k, got, want)
		}
	}
	for k := range conGot {
		if _, ok := detGot[k]; !ok {
			t.Errorf("message %q delivered on concurrent but dropped on deterministic", k)
		}
	}
}

// TestFaultScheduleParityRandomized extends the parity property to the
// Randomized backend: interleaving choice does not change the delivered
// multiset either.
func TestFaultScheduleParityRandomized(t *testing.T) {
	const (
		seed    = 11
		objects = 3
		perPair = 30
	)
	run := func(newFabric func() interface {
		Send(Message) error
		Drain(int) error
		Register(ident.ObjectID, Handler)
	}) map[string]int {
		got := make(map[string]int)
		f := newFabric()
		for o := 1; o <= objects; o++ {
			f.Register(ident.ObjectID(o), func(m Message) { got[m.Payload.(string)]++ })
		}
		for i := 0; i < perPair; i++ {
			for from := 1; from <= objects; from++ {
				for to := 1; to <= objects; to++ {
					if from == to {
						continue
					}
					if err := f.Send(Message{From: ident.ObjectID(from), To: ident.ObjectID(to),
						Kind: "k", Payload: fmt.Sprintf("%d->%d#%d", from, to, i)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := f.Drain(1 << 20); err != nil {
			t.Fatal(err)
		}
		return got
	}

	opts := Options{Faults: SeededFaults(seed, 0.3, 0.1)}
	det := run(func() interface {
		Send(Message) error
		Drain(int) error
		Register(ident.ObjectID, Handler)
	} {
		return NewDeterministic(opts)
	})
	rnd := run(func() interface {
		Send(Message) error
		Drain(int) error
		Register(ident.ObjectID, Handler)
	} {
		return NewRandomized(99, opts)
	})
	if len(det) == 0 {
		t.Fatal("no deliveries")
	}
	for k, want := range det {
		if got := rnd[k]; got != want {
			t.Errorf("message %q: randomized %d, deterministic %d", k, got, want)
		}
	}
	for k := range rnd {
		if _, ok := det[k]; !ok {
			t.Errorf("message %q delivered on randomized only", k)
		}
	}
}
