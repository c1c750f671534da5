package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Epoch is the instant every Virtual starts at: virtual timestamps are
// offsets from it, not wall-clock readings.
var Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic Clock. Time never moves on its own: Now returns
// the same instant until an advancer fires an armed deadline. There are two
// advancers, the caller of Advance / AdvanceToNext and, between StartAuto and
// StopAuto, the auto goroutine, and both obey one rule: the earliest deadline
// fires only when no token is outstanding and no callback is running. A
// callback runs on the advancer's goroutine with the clock unlocked; what it
// queues or wakes holds tokens, so the next deadline waits for all of it.
//
// A token that is never released stops the clock for good. String shows who
// holds what.
type Virtual struct {
	mu     sync.Mutex
	cond   sync.Cond // tokens reached zero, a deadline was armed, a callback returned or auto mode stopped
	now    time.Time
	timers timerHeap
	seq    uint64 // arm order, the tiebreak between equal deadlines

	held   [nLabels]int
	asleep int  // callers inside Sleep; each has lent the clock one token
	tokens int  // sum of held minus asleep
	firing bool // a callback is running

	auto chan struct{} // non-nil while the auto goroutine runs; closed when it has exited
}

// NewVirtual returns a Virtual clock standing at Epoch.
func NewVirtual() *Virtual {
	v := &Virtual{now: Epoch}
	v.cond.L = &v.mu
	return v
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Hold implements Clock.
func (v *Virtual) Hold(l Label) {
	v.mu.Lock()
	v.held[l]++
	v.tokens++
	v.mu.Unlock()
}

// Release implements Clock.
func (v *Virtual) Release(l Label) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.held[l] == 0 {
		panic("vclock: Release of a " + labelNames[l] + " token nobody holds")
	}
	v.held[l]--
	if v.tokens--; v.tokens == 0 {
		v.cond.Broadcast()
	}
}

// AfterFunc implements Clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Handle {
	t := &timer{clk: v, f: f, index: -1}
	v.mu.Lock()
	v.armLocked(t, d)
	v.mu.Unlock()
	return handle{t}
}

// Sleep implements Clock.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	woken := make(chan struct{})
	v.mu.Lock()
	if v.tokens == 0 {
		v.mu.Unlock()
		panic("vclock: Sleep by a caller that holds no token")
	}
	v.asleep++
	v.tokens--
	v.armLocked(&timer{clk: v, f: func() { close(woken) }, sleeper: true, index: -1}, d)
	v.mu.Unlock()
	<-woken
}

// Advance moves virtual time forward by d, firing every deadline inside the
// window in deadline-then-arm order. It waits for zero tokens before each
// firing and once more before it returns: everything the caller did before
// and everything the last firing caused has settled.
func (v *Virtual) Advance(d time.Duration) {
	for target := v.Now().Add(d); v.fireThrough(target); {
	}
}

// AdvanceToNext settles, jumps to the earliest armed deadline and fires
// everything due at that instant, settling after each. It reports whether a
// deadline was armed; false means time did not move.
func (v *Virtual) AdvanceToNext() bool {
	v.mu.Lock()
	v.settleLocked()
	if len(v.timers) == 0 {
		v.mu.Unlock()
		return false
	}
	at := v.timers[0].deadline
	v.mu.Unlock()
	for v.fireThrough(at) {
	}
	return true
}

// Pending returns the number of armed deadlines.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// StartAuto launches the auto advancer: a goroutine parked on the clock's
// condition that fires the earliest deadline whenever no token is held and
// one is armed. StartAuto on a running clock panics.
func (v *Virtual) StartAuto() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.auto != nil {
		panic("vclock: StartAuto on running Virtual")
	}
	done := make(chan struct{})
	v.auto = done
	go func() {
		defer close(done)
		for {
			v.mu.Lock()
			for v.auto == done && (v.tokens != 0 || v.firing || len(v.timers) == 0) {
				v.cond.Wait()
			}
			if v.auto != done {
				v.mu.Unlock()
				return
			}
			f := v.popLocked()
			v.mu.Unlock()
			v.fire(f)
		}
	}()
}

// StopAuto halts the auto advancer and returns once it has exited (behind the
// callback it may be running). Idempotent, and safe on a clock that never
// started auto mode; it must not be called from a callback.
func (v *Virtual) StopAuto() {
	v.mu.Lock()
	done := v.auto
	v.auto = nil
	v.cond.Broadcast()
	v.mu.Unlock()
	if done != nil {
		<-done
	}
}

// String renders the state an advancer decides on: tokens outstanding, how
// many are held under each label, how many callers are inside Sleep, and the
// armed deadlines as offsets from now, earliest first (the first eight). A
// clock that will not move reads e.g. "tokens=1 ... body=1 ... next=[+1ms]":
// some body neither finished nor parked.
func (v *Virtual) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "now=+%v tokens=%d", v.now.Sub(Epoch), v.tokens)
	for l, n := range v.held {
		fmt.Fprintf(&b, " %s=%d", labelNames[l], n)
	}
	fmt.Fprintf(&b, " sleep=%d firing=%v timers=%d next=[", v.asleep, v.firing, len(v.timers))
	due := make([]time.Duration, len(v.timers))
	for i, t := range v.timers {
		due[i] = t.deadline.Sub(v.now)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for i, d := range due[:min(len(due), 8)] {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "+%v", d)
	}
	b.WriteByte(']')
	return b.String()
}

// settleLocked waits until nothing is outstanding.
func (v *Virtual) settleLocked() {
	for v.tokens != 0 || v.firing {
		v.cond.Wait()
	}
}

// fireThrough settles, then fires the earliest deadline if it is not after
// limit and reports true; otherwise the clock moves to limit and it reports
// false.
func (v *Virtual) fireThrough(limit time.Time) bool {
	v.mu.Lock()
	v.settleLocked()
	if len(v.timers) == 0 || v.timers[0].deadline.After(limit) {
		if limit.After(v.now) {
			v.now = limit
		}
		v.mu.Unlock()
		return false
	}
	f := v.popLocked()
	v.mu.Unlock()
	v.fire(f)
	return true
}

// popLocked moves the clock to the earliest deadline and returns its callback
// for fire, marking the clock firing so that no other advancer moves
// meanwhile. A sleeper's token comes back here, before the sleeper can run.
func (v *Virtual) popLocked() func() {
	t := heap.Pop(&v.timers).(*timer)
	if t.deadline.After(v.now) {
		v.now = t.deadline
	}
	if t.sleeper {
		v.asleep--
		v.tokens++
	}
	v.firing = true
	return t.f
}

// fire runs a popped callback on the advancer's goroutine, clock unlocked.
func (v *Virtual) fire(f func()) {
	f()
	v.mu.Lock()
	v.firing = false
	v.cond.Broadcast()
	v.mu.Unlock()
}

func (v *Virtual) armLocked(t *timer, d time.Duration) {
	v.seq++
	t.deadline, t.seq = v.now.Add(max(d, 0)), v.seq
	heap.Push(&v.timers, t)
	v.cond.Broadcast()
}

// timer is one AfterFunc (or one Sleep): armed while index >= 0.
type timer struct {
	clk      *Virtual
	f        func()
	sleeper  bool // a Sleep: firing takes the lent token back
	deadline time.Time
	seq      uint64
	index    int // position in clk.timers, -1 when not armed; guarded by clk.mu
}

// set disarms the timer and, with arm, arms it again for d from now; it
// reports whether it was armed.
func (t *timer) set(arm bool, d time.Duration) bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	was := t.index >= 0
	if was {
		heap.Remove(&t.clk.timers, t.index)
	}
	if arm {
		t.clk.armLocked(t, d)
	}
	return was
}

// handle is the Handle of one AfterFunc.
type handle struct{ t *timer }

// Stop implements Handle.
func (h handle) Stop() bool { return h.t.set(false, 0) }

// Reset implements Handle.
func (h handle) Reset(d time.Duration) bool { return h.t.set(true, d) }

// timerHeap orders armed timers by deadline, then by arm order.
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.index = -1
	return t
}
