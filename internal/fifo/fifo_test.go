package fifo

import (
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestQueueFIFOAcrossWraps(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 1+round%7; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < q.Len(); i++ {
			if v := *q.At(i); v != want+i {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, v, want+i)
			}
		}
		for i := 0; i < 1+round%5 && q.Len() > 0; i++ {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d, %v; want %d", round, v, ok, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if v, _ := q.Pop(); v != want {
			t.Fatalf("drain: Pop = %d, want %d", v, want)
		}
		want++
	}
	if _, ok := q.Pop(); ok || want != next {
		t.Fatalf("empty queue popped, or lost elements: %d of %d", want, next)
	}
}

// Every slot outside the live window is zero, whichever of Pop, the
// compaction in Push and Reset vacated it: a consumed element must not stay
// reachable through the buffer.
func TestQueueClearsVacatedSlots(t *testing.T) {
	var q Queue[*int]
	check := func(when string) {
		t.Helper()
		all := q.buf[:cap(q.buf)]
		for i, p := range all {
			if live := i >= q.head && i < len(q.buf); !live && p != nil {
				t.Fatalf("%s: slot %d outside the live window [%d,%d) still holds an element", when, i, q.head, len(q.buf))
			}
		}
	}
	for i := 0; i < 8; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	check("after Pop")
	for cap(q.buf) == 8 && q.head > 0 {
		q.Push(new(int)) // fills to capacity, then compacts
	}
	check("after compaction")
	q.Reset()
	check("after Reset")
	if q.Len() != 0 || cap(q.buf) == 0 {
		t.Fatalf("Reset: len %d cap %d, want empty with capacity kept", q.Len(), cap(q.buf))
	}
}

// A steady producer/consumer never grows the buffer past its first size.
func TestQueueSteadyStateDoesNotGrow(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	size := cap(q.buf)
	for i := 0; i < 10000; i++ {
		q.Pop()
		q.Push(i)
	}
	if cap(q.buf) != size {
		t.Fatalf("capacity went %d -> %d under a steady load of 4", size, cap(q.buf))
	}
	if n := testing.AllocsPerRun(100, func() { q.Pop(); q.Push(1) }); n != 0 {
		t.Fatalf("steady Pop+Push allocates %v times", n)
	}
}

// A pump hands over in order on one goroutine, stopped runs behind the last
// handle call, and nothing is handled once Close has returned.
func TestPumpLifecycle(t *testing.T) {
	var got []int
	stoppedAfter := -1
	half := make(chan struct{})
	p := Start(nil, func(v int) {
		got = append(got, v)
		if v == 49 {
			close(half)
		}
	}, func() { stoppedAfter = len(got) })
	for i := 0; i < 50; i++ {
		p.Put(i)
	}
	<-half
	p.Close()
	p.Close()
	p.Put(99)
	if p.Len() != 0 {
		t.Fatalf("a closed pump queued %d elements", p.Len())
	}
	if len(got) != 50 || stoppedAfter != 50 {
		t.Fatalf("handled %d, stopped hook saw %d, want 50 and 50", len(got), stoppedAfter)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("element %d is %d", i, v)
		}
	}
}

// A Chan offers its elements in order, and shutdown does not wait for a
// reader: the handler blocked offering one gets out, what was still queued is
// dropped, and the channel closes.
func TestPumpShutdownReleasesBlockedHandler(t *testing.T) {
	p, out := Chan[int](nil)
	for i := 0; i < 10; i++ {
		p.Put(i)
	}
	for i := 0; i < 3; i++ {
		if v := <-out; v != i {
			t.Fatalf("element %d is %d", i, v)
		}
	}
	p.Close() // nobody reads out any more
	if v, open := <-out; open {
		t.Fatalf("%d delivered after Close: the backlog was not discarded", v)
	}
}

// On a virtual clock a pump with anything queued is outstanding work: Advance
// returns only when the handler has had all of it, and a pump closed with a
// backlog gives its token back.
func TestPumpHoldsTokensOnVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual()
	handled := 0
	p := Start(clk, func(int) { handled++ }, nil)
	for i := 0; i < 100; i++ {
		p.Put(i)
	}
	clk.Advance(time.Millisecond) // no deadline armed: this only settles
	if handled != 100 {
		t.Fatalf("Advance returned with %d of 100 elements handled", handled)
	}
	p.Close()

	gate := make(chan struct{})
	q := Start(clk, func(int) { <-gate }, nil)
	for i := 0; i < 10; i++ {
		q.Put(i)
	}
	q.Shutdown()
	close(gate)
	<-q.done
	if s := clk.String(); !strings.Contains(s, "tokens=0 pump=0") {
		t.Fatalf("after closing a pump with a backlog the clock reads %q", s)
	}
}
