package fifo

import "sync"

// Pump is a Queue with the lock, the wake-up and the one goroutine that the
// delivery stack's inboxes put around it: Put queues without blocking, on
// whatever goroutine the producer runs, and Run drains the queue into a
// handler, one element at a time. netsim's Node inboxes and latency links and
// the fabric ports are each a Pump with their own handler.
type Pump[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond // queue became non-empty, or closed
	queue  Queue[T]
	closed bool

	stop chan struct{} // closed with closed: releases a handler that blocks
	done chan struct{} // Run returned
}

// NewPump returns an empty pump; the owner starts Run on a goroutine.
func NewPump[T any]() *Pump[T] {
	p := &Pump[T]{stop: make(chan struct{}), done: make(chan struct{})}
	p.cond.L = &p.mu
	return p
}

// Put queues v; after Shutdown it discards it.
func (p *Pump[T]) Put(v T) {
	p.mu.Lock()
	if !p.closed {
		p.queue.Push(v)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Len returns the number of queued elements.
func (p *Pump[T]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.Len()
}

// Stopping is closed by Shutdown; a handler that blocks selects on it.
func (p *Pump[T]) Stopping() <-chan struct{} { return p.stop }

// Shutdown closes the pump and wakes Run without waiting for it. What is
// still queued is discarded. Idempotent.
func (p *Pump[T]) Shutdown() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.stop)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Close is Shutdown, then wait until Run has returned: the handler is not
// running and will not be called again. It must not be called from the
// handler.
func (p *Pump[T]) Close() {
	p.Shutdown()
	<-p.done
}

// Run is the pump's goroutine. Its last act is to call stopped (when
// non-nil), behind the last handle call.
func (p *Pump[T]) Run(handle func(T), stopped func()) {
	defer close(p.done)
	if stopped != nil {
		defer stopped()
	}
	for {
		p.mu.Lock()
		for p.queue.Len() == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.queue.Reset()
			p.mu.Unlock()
			return
		}
		v, _ := p.queue.Pop()
		p.mu.Unlock()
		handle(v)
	}
}
