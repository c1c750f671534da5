// Package fifo holds the one unbounded FIFO queue the delivery stack is built
// from. Queue is that queue, unsynchronised: session mailboxes and R3's
// retransmission window keep one under their own lock. Pump is the lock,
// wake-up and draining goroutine put around it where the consumer may block:
// netsim's latency links, which sleep out each message's delay, the
// conformance adapters' handlers, which send under a lock, and every Recv
// channel, which is a Chan. Fabric ports queue nothing: they call their
// handler on the delivering goroutine.
package fifo

// Queue is an unbounded FIFO over a single reusable buffer. Pop advances a
// head index instead of re-slicing the front away, so a drained queue starts
// over at the front of the same array, and Push compacts the live suffix
// before it would grow; every vacated slot is zeroed at once so the queue
// never keeps a consumed element reachable. The zero value is an empty queue.
//
// A Queue is not synchronised: its owner calls it under the owner's own lock.
type Queue[T any] struct {
	buf  []T
	head int // buf[head:] is live, buf[:head] is zeroed
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// At returns the i-th queued element (0 = the front), in place. i must be
// below Len.
func (q *Queue[T]) At(i int) *T { return &q.buf[q.head+i] }

// Pop removes and returns the front element; ok is false on an empty queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}

// Reset empties the queue, keeping its capacity and no element.
func (q *Queue[T]) Reset() {
	clear(q.buf[q.head:])
	q.buf, q.head = q.buf[:0], 0
}
