package vclock

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualNowFrozen(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatal("virtual clock does not start at Epoch")
	}
	v.Advance(3 * time.Second)
	if got := v.Now().Sub(Epoch); got != 3*time.Second {
		t.Fatalf("advance moved %v, want 3s", got)
	}
}

// firedAt arms a callback that records the offset it fired at.
func firedAt(v *Virtual, d time.Duration, log *[]time.Duration) Handle {
	return v.AfterFunc(d, func() { *log = append(*log, v.Now().Sub(Epoch)) })
}

func TestVirtualTimerFiresInOrder(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	firedAt(v, 10*time.Millisecond, &fired)
	firedAt(v, 5*time.Millisecond, &fired)
	v.Advance(20 * time.Millisecond)
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 10*time.Millisecond {
		t.Fatalf("fired at %v, want [5ms 10ms]: a callback sees its own deadline as Now", fired)
	}
}

// Two deadlines at one instant fire in the order they were armed.
func TestVirtualEqualDeadlinesFireInArmOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 8; i++ {
		v.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	v.Advance(time.Millisecond)
	for i, got := range order {
		if got != i {
			t.Fatalf("fired in order %v, want arm order", order)
		}
	}
	if len(order) != 8 {
		t.Fatalf("fired %d of 8", len(order))
	}
}

func TestVirtualTimerStopReset(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	tm := firedAt(v, 5*time.Millisecond, &fired)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	v.Advance(10 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatal("stopped timer fired")
	}
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset on disarmed timer reported true")
	}
	v.Advance(5 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 15*time.Millisecond {
		t.Fatalf("reset timer fired at %v, want [15ms]", fired)
	}
}

// The seam has no ticker: a callback that re-arms its own handle is one, and
// Advance(N·d) runs it N times.
func TestVirtualTickerRepeats(t *testing.T) {
	v := NewVirtual()
	ticks := 0
	var tk Handle
	tk = v.AfterFunc(time.Millisecond, func() {
		ticks++
		tk.Reset(time.Millisecond)
	})
	v.Advance(5 * time.Millisecond)
	if ticks != 5 {
		t.Fatalf("got %d ticks in 5 periods, want 5", ticks)
	}
	tk.Stop()
	v.Advance(10 * time.Millisecond)
	if ticks != 5 {
		t.Fatal("stopped ticker ticked")
	}
	if n := v.Pending(); n != 0 {
		t.Fatalf("pending=%d after stop, want 0", n)
	}
}

func TestVirtualAdvanceToNext(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	firedAt(v, 7*time.Millisecond, &fired)
	firedAt(v, 7*time.Millisecond, &fired)
	firedAt(v, 9*time.Millisecond, &fired)
	if !v.AdvanceToNext() {
		t.Fatal("AdvanceToNext found nothing")
	}
	if got := v.Now().Sub(Epoch); got != 7*time.Millisecond || len(fired) != 2 {
		t.Fatalf("jumped %v firing %d, want 7ms and both deadlines due there", got, len(fired))
	}
	if !v.AdvanceToNext() || v.AdvanceToNext() {
		t.Fatal("want one more deadline, then an empty heap reporting false")
	}
}

// Advance does not fire deadline k+1 while a token taken in callback k is
// outstanding, and does once it is released.
func TestVirtualAdvanceWaitsForHeldToken(t *testing.T) {
	v := NewVirtual()
	var second atomic.Bool
	v.AfterFunc(time.Millisecond, func() { v.Hold(Pump) })
	v.AfterFunc(2*time.Millisecond, func() { second.Store(true) })
	done := make(chan struct{})
	go func() {
		v.Advance(2 * time.Millisecond)
		close(done)
	}()
	// Real time is the only witness that something does NOT happen.
	time.Sleep(20 * time.Millisecond)
	if second.Load() {
		t.Fatal("second deadline fired while the first callback's token was held")
	}
	if s := v.String(); !strings.Contains(s, "tokens=1") || !strings.Contains(s, "pump=1") ||
		!strings.Contains(s, "next=[+1ms]") {
		t.Fatalf("a stuck clock reads %q, want tokens=1 pump=1 next=[+1ms]", s)
	}
	v.Release(Pump)
	<-done
	if !second.Load() {
		t.Fatal("second deadline did not fire once the token was released")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual()
	var woke time.Duration
	v.Hold(Run) // on the sleeper's behalf, so that Advance cannot start before it sleeps
	go func() {
		v.Sleep(50 * time.Millisecond)
		woke = v.Now().Sub(Epoch)
		v.Release(Run)
	}()
	// Advance waits for the sleeper to lend its token, fires its deadline and
	// returns only when the woken sleeper has released: no polling.
	v.Advance(time.Second)
	if woke != 50*time.Millisecond {
		t.Fatalf("sleeper woke at +%v, want +50ms", woke)
	}
}

// Auto mode: four goroutines each sleeping 5 x 10ms of virtual time are
// driven to completion, and the clock reads exactly 50ms when they are.
func TestVirtualAutoAdvance(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		v.Hold(Body)
		go func() {
			defer wg.Done()
			defer v.Release(Body)
			for j := 0; j < 5; j++ {
				v.Sleep(10 * time.Millisecond)
			}
		}()
	}
	v.StartAuto()
	wg.Wait()
	v.StopAuto()
	if got := v.Now().Sub(Epoch); got != 50*time.Millisecond {
		t.Fatalf("virtual time advanced %v, want exactly 50ms", got)
	}
}

// Auto mode fires the nearest deadline, never a far one ahead of it: a 1ms
// re-arming callback runs 59 999 times before a minute-long one.
func TestVirtualAutoHonorsNearTimers(t *testing.T) {
	v := NewVirtual()
	ticks, atMinute := 0, -1
	done := make(chan struct{})
	var tk Handle
	tk = v.AfterFunc(time.Millisecond, func() {
		ticks++
		tk.Reset(time.Millisecond)
	})
	v.AfterFunc(time.Minute, func() {
		atMinute = ticks
		tk.Stop()
		close(done)
	})
	v.StartAuto()
	<-done
	v.StopAuto()
	// The ticker's 60 000th deadline equals the minute's; it was armed later.
	if atMinute != 59999 {
		t.Fatalf("the minute fired after %d ticks, want 59999", atMinute)
	}
}

// Auto mode needs no spare CPU and reads no real time: with one P an
// hour-long Sleep is over in under a millisecond of it (the best of ten, so
// that a neighbour taking the core for a while does not fail the test).
func TestVirtualAutoJumpsOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	v := NewVirtual()
	v.StartAuto()
	defer v.StopAuto()
	v.Hold(Run)
	best := time.Hour
	for i := 0; i < 10; i++ {
		start := time.Now()
		v.Sleep(time.Hour)
		best = min(best, time.Since(start))
	}
	v.Release(Run)
	if got := v.Now().Sub(Epoch); got != 10*time.Hour {
		t.Fatalf("virtual time advanced %v, want 10h", got)
	}
	if best >= time.Millisecond {
		t.Fatalf("an hour of virtual sleep took at least %v of real time", best)
	}
}

func TestVirtualHoldReleaseConcurrent(t *testing.T) {
	v := NewVirtual()
	fired := 0
	var tk Handle
	tk = v.AfterFunc(time.Microsecond, func() {
		fired++
		tk.Reset(time.Microsecond)
	})
	v.StartAuto()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				v.Hold(Label(i % int(nLabels)))
				v.Release(Label(i % int(nLabels)))
			}
		}()
	}
	wg.Wait()
	v.StopAuto()
	if s := v.String(); !strings.Contains(s, "tokens=0 pump=0 mailbox=0 body=0 handler=0 run=0 sleep=0") {
		t.Fatalf("after 80 000 balanced pairs the clock reads %q", s)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Or(nil)
	if c == nil {
		t.Fatal("Or(nil) returned nil")
	}
	start := c.Now()
	c.Hold(Run) // no-ops
	c.Sleep(time.Millisecond)
	c.Release(Run)
	if !c.Now().After(start) {
		t.Fatal("real clock did not move")
	}
	fired := make(chan struct{}, 1)
	tm := c.AfterFunc(time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing reported true")
	}
	tm.Reset(time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc did not fire again after Reset")
	}
}

func TestVirtualTimerResetWhileArmed(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	tm := firedAt(v, 5*time.Millisecond, &fired)
	if !tm.Reset(20 * time.Millisecond) {
		t.Fatal("Reset on armed timer reported false")
	}
	v.Advance(10 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatal("timer fired at old deadline after Reset")
	}
	v.Advance(10 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 20*time.Millisecond {
		t.Fatalf("timer fired at %v, want [20ms]", fired)
	}
}

func TestVirtualManyTimersHeapOrder(t *testing.T) {
	v := NewVirtual()
	const n = 64
	var fired []time.Duration
	handles := make([]Handle, n)
	for i := range handles {
		// Deadlines 64ms, 63ms, ..., 1ms: reverse arm order.
		handles[i] = firedAt(v, time.Duration(n-i)*time.Millisecond, &fired)
	}
	for i := 0; i < n; i += 4 {
		handles[i].Stop() // removal from the middle of the heap
	}
	for v.AdvanceToNext() {
	}
	if len(fired) != n-n/4 {
		t.Fatalf("fired %d timers, want %d", len(fired), n-n/4)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("out-of-order firing: %v after %v", fired[i], fired[i-1])
		}
	}
}

func TestSleepWithoutTokenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep by a caller with no token did not panic")
		}
	}()
	NewVirtual().Sleep(time.Millisecond)
}
