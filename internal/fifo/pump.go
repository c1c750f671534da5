package fifo

import (
	"sync"

	"repro/internal/vclock"
)

// Pump is a Queue with the lock, the wake-up and the one goroutine that the
// delivery stack puts around it where a consumer may block: Put queues
// without blocking, on whatever goroutine the producer runs, and the pump's
// goroutine drains the queue into a handler, one element at a time. netsim's
// latency links and the conformance adapters' inboxes are pumps with their
// own handler; every Recv channel is a Chan.
//
// A pump with work holds one vclock.Pump token on its clock, from the Put that
// found it idle until its handler has had (or, on close, the pump discarded)
// everything queued: a virtual clock does not move while a pump has work. The
// token is the goroutine's, not the element's, so a handler that waits in
// Clock.Sleep (a latency link) lends the clock the only token the pump holds,
// however many messages queue up behind the one that is waiting.
type Pump[T any] struct {
	clk    vclock.Clock
	mu     sync.Mutex
	cond   sync.Cond // queue became non-empty, or closed
	queue  Queue[T]
	busy   bool // the pump holds its token
	closed bool

	stop chan struct{} // closed with closed: releases a handler that blocks
	done chan struct{} // the goroutine returned
}

// Start returns an empty pump whose elements are counted on clk (nil: the
// real clock, which counts nothing) and whose goroutine hands each one to
// handle, in order. The goroutine's last act is to call stopped (when
// non-nil), behind the last handle call.
func Start[T any](clk vclock.Clock, handle func(T), stopped func()) *Pump[T] {
	p := &Pump[T]{clk: vclock.Or(clk), stop: make(chan struct{}), done: make(chan struct{})}
	p.cond.L = &p.mu
	go p.run(handle, stopped)
	return p
}

// Chan starts a pump that feeds the returned channel, the one queue behind
// every Recv channel: Put never blocks, the pump's goroutine offers the
// elements on the channel in order, and the channel closes once the pump has
// shut down, what was still queued discarded.
func Chan[T any](clk vclock.Clock) (*Pump[T], <-chan T) {
	out := make(chan T)
	var p *Pump[T]
	p = Start(clk, func(v T) {
		select {
		case out <- v:
		case <-p.stop:
		}
	}, func() { close(out) })
	return p, out
}

// Put queues v; after Shutdown it discards it.
func (p *Pump[T]) Put(v T) {
	p.mu.Lock()
	if !p.closed {
		if !p.busy {
			p.busy = true
			p.clk.Hold(vclock.Pump)
		}
		p.queue.Push(v)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// idleLocked gives the pump's token back: nothing is queued or being handled.
func (p *Pump[T]) idleLocked() {
	if p.busy {
		p.busy = false
		p.clk.Release(vclock.Pump)
	}
}

// Len returns the number of queued elements.
func (p *Pump[T]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.Len()
}

// Shutdown closes the pump and wakes its goroutine without waiting for it.
// What is still queued is discarded. Idempotent.
func (p *Pump[T]) Shutdown() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.stop)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Close is Shutdown, then wait until the goroutine has returned: the handler
// is not running and will not be called again. It must not be called from
// the handler.
func (p *Pump[T]) Close() {
	p.Shutdown()
	<-p.done
}

// run is the pump's goroutine.
func (p *Pump[T]) run(handle func(T), stopped func()) {
	defer close(p.done)
	if stopped != nil {
		defer stopped()
	}
	for {
		p.mu.Lock()
		for p.queue.Len() == 0 && !p.closed {
			p.idleLocked()
			p.cond.Wait()
		}
		if p.closed {
			p.queue.Reset()
			p.idleLocked()
			p.mu.Unlock()
			return
		}
		v, _ := p.queue.Pop()
		p.mu.Unlock()
		handle(v)
	}
}
